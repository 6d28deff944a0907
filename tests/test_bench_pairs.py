"""tools/bench_pairs.py: alternation, summaries and win counts, on runs that
are stubbed, so that no benchmark runs."""

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = bench_pairs
_spec.loader.exec_module(bench_pairs)


def test_pairs_alternate_and_summarize(monkeypatch, tmp_path):
    # the base's wall_s runs 10, 11, 12, 13, the head's 9, 12, 10, 9: the
    # head wins pairs 1, 3 and 4; its median 9.5 is 17% below the base's
    # 11.5, and its peak_rss_mb 20% above, beyond the bound of 0.1
    base, head = tmp_path / "base", tmp_path / "head"
    head.mkdir()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec["run_seconds"] = 7  # every run takes the spec's run length
    (head / "BENCHMARK.json").write_text(json.dumps(spec))
    walls = {base: iter([10.0, 11.0, 12.0, 13.0]), head: iter([9.0, 12.0, 10.0, 9.0])}
    calls = []

    def run(checkout, workload, seconds):
        calls.append(checkout)
        assert seconds == 7
        metrics = {"setup_s": 1.0, "wall_s": next(walls[checkout]), "op_p50_ms": 2.0,
                   "peak_rss_mb": 50.0 if checkout == base else 60.0}
        return {"metrics": {k: {"value": v} for k, v in metrics.items()},
                "failed": 0, "attempted": 7, "meta": {"openblas_threads": 2}}

    monkeypatch.setattr(bench_pairs, "_run", run)
    monkeypatch.setattr(bench_pairs, "ROOT", head)
    bench_pairs.main(["--base", str(base), "--label", "t", "--pairs", "norm_bound=4"])
    out = json.loads((head / "BENCH_t.json").read_text())
    assert (out["seed"], out["seconds"]) == (1, 7)
    out = out["workloads"]["norm_bound"]
    assert calls == [base, head, head, base, base, head, head, base]
    assert out["first_side"] == ["base", "head", "base", "head"]
    wall = out["metrics"]["wall_s"]
    assert (wall["base"]["median"], wall["head"]["median"]) == (11.5, 9.5)
    assert (wall["base"]["q1"], wall["base"]["q3"]) == (10.75, 12.25)
    assert wall["head_wins"] == 3 and not wall["worse_than_bound"]
    rss = out["metrics"]["peak_rss_mb"]
    assert rss["head_wins"] == 0 and rss["worse_than_bound"]
    assert abs(rss["median_change"] - 0.2) < 1e-12
    assert out["operations"]["head"] == {"failed": [0] * 4, "attempted": [7] * 4}
    assert out["meta"]["base"] == [{"openblas_threads": 2}] * 4
