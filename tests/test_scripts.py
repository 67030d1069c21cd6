import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("name", ["bench_apply", "denoise_demo", "run_all_studies"])
def test_script_imports(name):
    # importing runs the script's own imports from the package, not main()
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def test_denoise_demo_manifest_independent_of_outdir(tmp_path, monkeypatch):
    # the demo's config names its image relative to itself, so two runs into
    # different directories hash the same config
    spec = importlib.util.spec_from_file_location("denoise_demo", SCRIPTS / "denoise_demo.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    manifests = []
    for name in ("a", "nested/b"):
        out = tmp_path / name
        monkeypatch.setattr("sys.argv", ["denoise_demo.py", str(out), "--size", "16"])
        assert demo.main() == 0
        manifests.append((out / "manifest.csv").read_bytes())
    assert manifests[0] == manifests[1]
