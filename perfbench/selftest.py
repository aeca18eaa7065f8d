"""The benchmark's own tests.

    python3 perfbench/selftest.py            # everything (about 3 minutes)
    python3 perfbench/selftest.py Checks     # only the output checks (seconds)

``Checks`` shows that every output check passes on a correct output and
names a planted corruption; ``Faults`` pins engine faults the benchmark
works around (expected failures until mended); ``Processes`` shows that
a run waits for every process it started, orphans included; ``Smoke``
runs each workload end to end on a tiny input through the same command
the benchmark runs, and finds no process of it left afterwards.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, ROOT]

import pandas as pd  # noqa: E402
import pyarrow as pa  # noqa: E402

import checks  # noqa: E402
import harness  # noqa: E402


def _oracle_outputs(n_convs: int = 60):
    """A small corpus and a correct KG for it, from the serial oracle."""
    from entity_extractor_ray import oracle
    from entity_extractor_ray.sources.transcripts import TurnCorpusSpec, generate_turns

    turns = generate_turns(TurnCorpusSpec(n_convs=n_convs, seed=5))
    store = oracle.run_oracle(turns)
    t = list(zip(*store.triples))
    out = {
        "triples": pa.table({"conv_id": t[0], "subj": t[1], "pred": t[2], "obj": t[3]}),
        "nodes": pa.table({"entity_id": [n["entity_id"] for n in oracle.oracle_nodes(store)]}),
        "edges": pa.table({"src": [e["src"] for e in oracle.oracle_edges(store)],
                           "dst": [e["dst"] for e in oracle.oracle_edges(store)]}),
        "lineage": pa.table({"entity_id": [x[0] for x in store.lineage]}),
        "errors": pa.table({"stage": [e[0] for e in store.errors],
                            "key": [e[1] for e in store.errors]}),
    }
    return turns, out


def _replace(t: pa.Table, col: str, row: int, value) -> pa.Table:
    vals = t.column(col).to_pylist()
    vals[row] = value
    return t.set_column(t.column_names.index(col), col, pa.array(vals, t.column(col).type))


class Checks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.turns, cls.out = _oracle_outputs()
        cls.records = checks.conversation_records(cls.turns)
        cls.want = checks.expected_triples(cls.records)

    def test_triples_pass_and_reject_a_dropped_triple(self):
        self.assertEqual(checks.check_triples(self.out["triples"], self.want), [])
        dropped = self.out["triples"].slice(1)
        self.assertIn("missing", " ".join(checks.check_triples(dropped, self.want)))

    def test_triples_reject_a_changed_object(self):
        bad = _replace(self.out["triples"], "obj", 0, "ACME-that-never-was")
        self.assertTrue(checks.check_triples(bad, self.want))

    def test_graph_passes_on_a_correct_graph(self):
        self.assertEqual(checks.check_graph(self.out, self.records), [])

    def test_graph_rejects_a_dangling_edge(self):
        bad = dict(self.out, edges=_replace(self.out["edges"], "dst", 0, "no-such-node"))
        self.assertIn("dst not a node", " ".join(checks.check_graph(bad, self.records)))

    def test_graph_rejects_a_duplicate_node(self):
        nodes = self.out["nodes"]
        bad = dict(self.out, nodes=pa.concat_tables([nodes, nodes.slice(0, 1)]))
        self.assertIn("duplicate entity_id", " ".join(checks.check_graph(bad, self.records)))

    def test_graph_rejects_an_unaccounted_conversation(self):
        t = self.out["triples"]
        first = t.column("conv_id")[0].as_py()
        keep = pa.array([c != first for c in t.column("conv_id").to_pylist()])
        bad = dict(self.out, triples=t.filter(keep))
        self.assertIn("no triple or error row", " ".join(checks.check_graph(bad, self.records)))

    def test_graph_rejects_a_lineage_entity_that_is_not_a_node(self):
        bad = dict(self.out, lineage=_replace(self.out["lineage"], "entity_id", 0, "ghost"))
        self.assertIn("lineage", " ".join(checks.check_graph(bad, self.records)))

    def test_delta_equality_rejects_a_dropped_and_a_changed_row(self):
        want = {n: self.out[n] for n in ("triples", "nodes", "edges", "lineage", "errors")}
        want["manufacturers"] = pa.table({"name": ["a", "b"]})
        self.assertEqual(checks.check_same_outputs(want, want), [])
        dropped = dict(want, triples=want["triples"].slice(1))
        self.assertIn("triples", " ".join(checks.check_same_outputs(dropped, want)))
        changed = dict(want, manufacturers=pa.table({"name": ["a", "c"]}))
        self.assertIn("manufacturers", " ".join(checks.check_same_outputs(changed, want)))
        # an empty output writes no file, so it reads back without columns
        empty = dict(want, errors=pa.table({}))
        self.assertIn("errors", " ".join(checks.check_same_outputs(empty, want)))
        none = dict(want, errors=want["errors"].slice(0, 0))
        self.assertEqual(checks.check_same_outputs(dict(none, errors=pa.table({})), none), [])

    def test_query_check_rejects_a_changed_value(self):
        want = pd.DataFrame({"k": ["a", "b"], "v": [1.25, 2.5], "n": [3, 4]})
        got = want.iloc[::-1].reset_index(drop=True)
        self.assertEqual(checks.check_query("q", got, want), [])
        bad = got.copy()
        bad.loc[0, "v"] = 2.51
        self.assertIn("column v", " ".join(checks.check_query("q", bad, want)))
        self.assertIn("rows", " ".join(checks.check_query("q", got.iloc[:1], want)))
        nothing = pd.DataFrame()  # a query that wrote no file
        self.assertEqual(checks.check_query("q", nothing, want.iloc[:0]), [])
        self.assertIn("0 rows", " ".join(checks.check_query("q", nothing, want)))

    A = "the quick brown fox jumps over the lazy dog"
    DOCS = pa.table({"doc_id": [0, 1, 2, 3],
                     "text": [A, A, A + " again", "an unrelated sentence entirely"]})

    def test_minhash_properties(self):
        docs = self.DOCS
        ok = pd.DataFrame({"doc_id": [0, 1, 2, 3], "cluster_id": [0, 0, 0, 3]})
        self.assertEqual(checks.check_minhash(ok, docs, exact_kept=3), [])
        same_text = pd.DataFrame({"doc_id": [0, 1, 2, 3], "cluster_id": [0, 1, 2, 3]})
        self.assertIn("same text", " ".join(checks.check_minhash(same_text, docs, 4)))
        stranger = pd.DataFrame({"doc_id": [0, 1, 2, 3], "cluster_id": [0, 0, 9, 3]})
        self.assertIn("not in the input", " ".join(checks.check_minhash(stranger, docs, 3)))
        too_many = pd.DataFrame({"doc_id": [0, 1, 2, 3], "cluster_id": [0, 0, 2, 3]})
        self.assertIn("keeps 3", " ".join(checks.check_minhash(too_many, docs, 2)))

    def test_minhash_rejects_over_merging(self):
        one = pd.DataFrame({"doc_id": [0, 1, 2, 3], "cluster_id": [0, 0, 0, 0]})
        self.assertIn("below Jaccard", " ".join(checks.check_minhash(one, self.DOCS, 3)))
        relabelled = pd.DataFrame({"doc_id": [0, 1, 2, 3], "cluster_id": [1, 1, 1, 3]})
        self.assertIn("smallest doc_id",
                      " ".join(checks.check_minhash(relabelled, self.DOCS, 3)))


class Faults(unittest.TestCase):
    """Engine faults the benchmark works around; each test fails while the
    fault stands (expected) and passes once it is mended."""

    @unittest.expectedFailure
    def test_minhash_dedup_on_documents_without_a_near_duplicate(self):
        import ray
        import ray.data as rd

        from entity_extractor_ray.stages import dedup

        os.environ["PYTHONPATH"] = ROOT
        ray.init(address="local", num_cpus=1, include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False)
        try:
            docs = rd.from_arrow(pa.table({
                "doc_id": pa.array([1, 2, 3], pa.int64()),
                "text": ["alpha beta gamma delta", "one two three four five",
                         "red green blue yellow"]}))
            got = dedup.minhash_dedup(docs).to_pandas()
        finally:
            ray.shutdown()
        self.assertEqual(sorted(got["cluster_id"]), [1, 2, 3])


class Processes(unittest.TestCase):
    def test_an_orphan_is_waited_for_and_ended(self):
        self.assertTrue(harness.become_subreaper())
        # the shell exits at once; its sleep, orphaned, becomes our child
        subprocess.run(["sh", "-c", "sleep 60 &"], check=True)
        self.assertEqual(len(harness.descendants(os.getpid())), 1)
        ends = harness.end_descendants(grace_s=0.4)
        self.assertEqual((ends["found"], ends["signalled"]), (1, 1))
        self.assertEqual(harness.descendants(os.getpid()), [])

    def test_an_ending_child_is_waited_for_unsignalled(self):
        harness.become_subreaper()
        p = subprocess.Popen(["sleep", "0.3"])
        ends = harness.end_descendants()
        self.assertEqual((ends["found"], ends["signalled"]), (1, 0))
        self.assertGreater(ends["wait_s"], 0.1)
        self.assertIsNotNone(p.poll())
        self.assertEqual(harness.descendants(os.getpid()), [])


def _bench(workload: str, trace: int):
    p = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "9001", "--seconds", "1", "--trace", str(trace), "--scale", "0.05"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    return p


def _load(path: str):
    with open(path) as fh:
        return json.load(fh)


class Smoke(unittest.TestCase):
    spec = _load(os.path.join(ROOT, "BENCHMARK.json"))

    def run_workload(self, workload: str, trace: int) -> dict:
        # as subreaper, this process inherits whatever the run leaves
        self.assertTrue(harness.become_subreaper())
        p = _bench(workload, trace)
        self.assertEqual(harness.descendants(os.getpid()), [])
        self.assertEqual(p.returncode, 0, p.stderr[-3000:])
        res = json.loads(p.stdout.strip().splitlines()[-1])
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"], p.stderr[-3000:])
        group = "per_layer" if trace else "end_to_end"
        want = {m["name"]: m["unit"] for m in self.spec[group]}
        self.assertEqual({k: v["unit"] for k, v in res["metrics"].items()}, want)
        return res

    def test_kg_build(self):
        res = self.run_workload("kg_build", 0)
        self.assertEqual(res["failed"], 0)
        self.assertGreater(res["metrics"]["wall_s"]["value"], 0)

    def test_kg_build_traced(self):
        res = self.run_workload("kg_build", 1)
        cov = res["metrics"]["trace.coverage"]["value"]
        self.assertTrue(0.95 <= cov <= 1.0, cov)
        trace = _load(os.path.join(
            ROOT, ".perfbench_run", "runs", "kg_build-s9001-t1-x0.05", "trace.json"))
        names = {s["name"] for s in trace["spans"]}
        self.assertTrue({"setup", "op", "stage.records", "stage.gap", "check"} <= names)
        for s in trace["spans"]:
            self.assertTrue({"name", "start", "end", "parent", "run"} <= set(s))

    def test_kg_delta(self):
        res = self.run_workload("kg_delta", 1)
        self.assertEqual(res["failed"], 0)
        self.assertGreater(res["metrics"]["delta.prepare.s"]["value"], 0)

    def test_queries(self):
        res = self.run_workload("queries", 0)
        # a round is two passes over seven queries and one time-limited
        # join; only the join may fail
        self.assertEqual(res["attempted"] % 15, 0)
        self.assertIn(res["failed"] * 15, (0, res["attempted"]))


if __name__ == "__main__":
    unittest.main(verbosity=2)
