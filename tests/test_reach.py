"""``tools/reach.py`` runs reach cells in fresh processes and appends one run
per call to its JSON file; here on the two smallest cells of its quick set."""

import json
import os
import pathlib
import subprocess
import sys

from test_stdlib_only import imported_modules

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "reach.py")
SMALLEST = ["a_space(0, 1, 4)", "verify_bridge(3, trivial, 3)"]


def _run(out, *extra):
    return subprocess.run([sys.executable, TOOL, "--number", "0", "--out", str(out), *extra],
                          capture_output=True, text=True, timeout=120)


def test_two_smallest_cells_write_the_schema(tmp_path):
    out = tmp_path / "BENCH_0.json"
    for _ in range(2):
        proc = _run(out, "--cells", *SMALLEST)
        assert proc.returncode == 0, proc.stderr
    bench = json.loads(out.read_text())
    assert bench["schema"] == 1 and bench["number"] == "0"
    assert len(bench["runs"]) == 2  # each call appends its run
    for run in bench["runs"]:
        env = run["env"]
        assert set(env) == {"python", "nproc", "loadavg", "git_sha", "src_sha256"}
        assert env["python"] == sys.version.split()[0]
        assert isinstance(env["nproc"], int) and len(env["loadavg"]) == 3
        assert env["git_sha"] is None or len(env["git_sha"]) == 40
        assert [c["cell"] for c in run["cells"]] == SMALLEST
        for cell in run["cells"]:
            assert set(cell) == {"cell", "status", "result", "call_s", "process_s",
                                 "peak_rss_mb", "expensive"}
            assert cell["status"] == "ok" and cell["expensive"] is False
            assert 0 < cell["call_s"] < cell["process_s"] and cell["peak_rss_mb"] > 0
        # A(0, 1, 4) has the published one-arc dimension 6; the bridge holds
        assert [c["result"] for c in run["cells"]] == [6, True]


def test_an_unknown_cell_is_refused(tmp_path):
    proc = _run(tmp_path / "BENCH_0.json", "--cells", "j_space(99, 1)")
    assert proc.returncode == 2 and "unknown cells" in proc.stderr
    assert not (tmp_path / "BENCH_0.json").exists()


def test_the_tool_is_stdlib_only():
    allowed = sys.stdlib_module_names
    outside = [(line, name) for line, name in imported_modules(pathlib.Path(TOOL))
               if name not in allowed]
    assert not outside, outside
