"""A byte guard: a fixed slice of ``tools/same_outputs.py``'s command set,
one command per family and no demo, run through the tool's own ``--run``
child, gives the exit codes, stdout, stderr and output files whose SHA-256
digests are pinned below.

The digests hold in the environment they were recorded in, ``PINNED_ON``:
the Python and numpy versions, ``platform.machine()`` and numpy's enabled
CPU features, since another libm or another set of SIMD loops may round a
last bit differently. In any other environment the test skips and names
the keys that differ. After a change that moves output bytes on purpose,
``python tests/test_output_bytes.py`` prints the tables to paste here.
"""

import hashlib
import importlib.util
import json
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "same_outputs.py"
SLICE = (
    "desk3/out/fit_00", "desk3/out/check_00", "desk3/out/density_00", "desk3/out/oracle_00",
    "desk3/out/refit_00",  # keeps the free fit
    "desk3/out/refit_10",  # pins chi to the fold
    "oracle_span_40",  # every branch of ndtr
    "delta_far_fit",  # the tails of ndtri
    "sweep_small", "sweep_small/calibrate", "check_numeric_rho40", "collapsing_refit_numeric",
    "density_span_nan", "refused_oracle_svg", "unwritable_density",  # exit 2
)

PINNED_ON = {
    "cpu_features": (
        "AVX AVX2 AVX512BF16 AVX512BITALG AVX512BW AVX512CD AVX512DQ AVX512F "
        "AVX512FP16 AVX512IFMA AVX512VBMI AVX512VBMI2 AVX512VL AVX512VNNI "
        "AVX512VPOPCNTDQ AVX512_CLX AVX512_CNL AVX512_ICL AVX512_SKX AVX512_SPR "
        "BMI BMI2 CX16 F16C FMA3 GFNI LAHF LZCNT MMX MOVBE POPCNT SSE SSE2 SSE3 "
        "SSE41 SSE42 SSSE3 VAES VPCLMULQDQ X86_V2 X86_V3 X86_V4"
    ),
    "machine": "x86_64",
    "numpy": "2.4.6",
    "python": "3.11.7",
}
COMMANDS = {
    "check_numeric_rho40": "bed6eca96af8ea19341c48557ea8c76747ca864549afc7828014b79bb027aa29",
    "collapsing_refit_numeric": "b499afd27cf7517d9e9badbe484d4a3268bdb3b968b6218010deb84c80c04a4e",
    "delta_far_fit": "98835e5646e20a4b556def53036f8d647f79c9436ae682673af21f9a426f05cf",
    "density_span_nan": "06811ad76b915c70f74c0a7e30e551e54208193a7ea991e3da1447f4a4d488f6",
    "desk3/out/check_00": "32d38c9de77643a44f69d38aa18684919335a856745e970b26c42eac1b6b519a",
    "desk3/out/density_00": "16f332654f83d8aeac625e059d05d5dca5c1d581b41f1746ced5e8954078f4f0",
    "desk3/out/fit_00": "ade5db35af5e1f098b8d4032d18b764437c038d22577cf8f0a8365637f572a60",
    "desk3/out/oracle_00": "527f83ef15c6a7c36c8ec697b9eff16e61bf5e79a085cf84a3e4d26bdcfbcf0e",
    "desk3/out/refit_00": "11c71771a3ddddbafdb5093a33caea6b8adb5f889368a9a584ca52db8f4268aa",
    "desk3/out/refit_10": "7b3d0db400097e5c614bd93eb5e2725a8f27b9cd3d043392d462c5e828f2f9e8",
    "oracle_span_40": "95c485974337a609569f24cc1366515f1f335bc667d7d114e077e0ab9d948c2b",
    "refused_oracle_svg": "cf5e5d5bb74784fc9c981cfd53cca281797a6519b696ce92ba867b57f65ba292",
    "sweep_small": "561d22852d040bcae21cbf7ac8ba30a912c83ac8a1fb2dfc3c51434997d6265a",
    "sweep_small/calibrate": "0c32c69f32cf25c9723abf21a1b6bb29e1b4e9068b3fd9da7bf301b3334fe5cd",
    "unwritable_density": "d30d6789956903f0151c45d32f96a817f1426c247c3ddfa9acc389050a2c536e",
}
FILES = {
    "check_numeric_rho40/check.txt": "962f7e28c7b0946c5c9532652ba7bc0ca097ae732022b6c4cf7ca5540a921cc8",
    "check_numeric_rho40/density.csv": "9c863ab25dbdfa5700d2b20034a6b2aa601cda158c5ba56cc1261c1072a91541",
    "collapsing_refit_numeric/refit.txt": "124a8070ff8f51527c6d83a34755fe2d8e60633ca50c9a9fb9aeb5849caf2794",
    "collapsing_refit_numeric/refit_comparison.csv": "4fefe4e01b1de0420fb96fb768a50079c3d03c63de90fb358e252ed48cb22732",
    "delta_far_fit/fit.txt": "9f47cda39dabeb5c9abdd2acd46ca9f002ff32a618d9975c1bffa9ab0acd4f16",
    "delta_far_fit/fit_residuals.csv": "c0a1a18ddf5615746e6db9ee0060fb08b89138075a7c6a99817162b9111b2712",
    "desk3/out/check_00/check.txt": "0c7a8c6527db53c8e1b3981d34a990b22387f7a1100ca436c039279977b52b41",
    "desk3/out/check_00/density.csv": "e2a55b5c88ff78e2375f29e31520c8f666ba3f9df47dea40389521f9efe9138d",
    "desk3/out/density_00/density.csv": "333a0013d6404fa16662b34d1bac0b0eeb2ade93274cb92d444a8f5e919cda2b",
    "desk3/out/density_00/density.txt": "ec1d7e82f427ae6c060a5beb08dea74d0516456282621495c2ef686383c21b31",
    "desk3/out/fit_00/fit.txt": "962478335e04026fc09b62821b4d8ab46014d6b9998cfcdc183645c3b86a9c4d",
    "desk3/out/fit_00/fit_residuals.csv": "2c40ce11c207432ae5a7ee8ba57af43694c20eb42a4ab844842469c5ce370815",
    "desk3/out/oracle_00/bl_oracle.csv": "f49572c5a81e16c13a0a2423dee67b78887d1622d5c0796ff550db4124ea873c",
    "desk3/out/refit_00/refit.txt": "70b842895fe338b60c4f68d055c2dbcc75b53d832d4fd18d621506c341edc3e9",
    "desk3/out/refit_00/refit_comparison.csv": "e24acd5a0cc78d952dd388f48ff47408e7e6e1b5a43c1ae237587a65dc112077",
    "desk3/out/refit_10/refit.txt": "cad1eabf91a65860b91ff58631624137c915f5aff2b022e053fd9d10d2eca1c4",
    "desk3/out/refit_10/refit_comparison.csv": "963537f640b1634f1e5087d850101ae7bce1eb5db3e6bab065ceb4038b194d70",
    "oracle_span_40/bl_oracle.csv": "117c9eab29625358133844d2940373e7454f05b859b3a31da0d274302027618e",
    "sweep_small/calibration.txt": "4c742719f5c012bbe410fbf553f6378436291e49091e029ca7beb8a450219679",
    "sweep_small/sweep.csv": "e15215e89e5bfb5fbec091350229ab553f50fd18533a85ae412dfe9a0ee2770c",
}


def environment() -> dict[str, str]:
    from numpy._core._multiarray_umath import __cpu_features__

    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine(),
            "cpu_features": " ".join(sorted(k for k, on in __cpu_features__.items() if on))}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _tool():
    spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def digests(src: Path, work: Path) -> tuple[dict[str, str], dict[str, str]]:
    """Run the slice on the package tree ``src`` in the empty directory
    ``work``: the digest of each command's ``[exit code, stdout, stderr]``
    (as JSON) and of each file the commands write."""
    tool = _tool()
    commands, files = tool.command_set()
    chosen = [cmd for cmd in commands if cmd["id"] in SLICE]
    assert len(chosen) == len(SLICE)
    # the files an argv names, and those under a command's own directory
    inputs = {rel for rel in files
              if any(rel in cmd["argv"] or rel.startswith(cmd["id"] + "/") for cmd in chosen)}
    for rel in inputs:
        (work / rel).parent.mkdir(parents=True, exist_ok=True)
        (work / rel).write_text(files[rel], encoding="utf-8")
    (work / tool.COMMANDS).write_text(json.dumps(chosen), encoding="utf-8")
    subprocess.run([sys.executable, str(TOOL), "--run", str(src), str(work)], check=True)
    results = json.loads((work / tool.RESULTS).read_text(encoding="utf-8"))
    outcomes = {cmd["id"]: _sha256(json.dumps(results[cmd["id"]]).encode()) for cmd in chosen}
    written = {rel: _sha256(path.read_bytes()) for path in sorted(work.rglob("*"))
               if path.is_file()
               and (rel := path.relative_to(work).as_posix()) not in inputs
               and rel not in (tool.COMMANDS, tool.RESULTS)}
    return outcomes, written


def _bench_modules() -> set[str]:
    return {name for name, module in list(sys.modules.items())
            if Path(getattr(module, "__file__", None) or ".").parent == ROOT / "bench"}


def test_command_set_leaves_the_interpreter_as_it_was(monkeypatch):
    # the tool imports bench/gen.py with bench/ first on the path and no
    # bytecode written; its caller keeps its path and flag, and no module of
    # bench/ stays loaded (numpy loads numpy.random on first use, so the
    # whole set of modules may grow)
    monkeypatch.setattr(sys, "dont_write_bytecode", False)
    tool = _tool()
    before = list(sys.path), sys.dont_write_bytecode, _bench_modules()
    tool.command_set()
    assert (list(sys.path), sys.dont_write_bytecode, _bench_modules()) == before


def test_slice_outputs_are_pinned(tmp_path):
    env = environment()
    differ = [key for key in env if env[key] != PINNED_ON.get(key)]
    if differ:
        pytest.skip(f"digests pinned in another environment; differs in {', '.join(differ)}")
    outcomes, written = digests(ROOT / "src", tmp_path)
    for got, pinned in ((outcomes, COMMANDS), (written, FILES)):
        moved = sorted(k for k in got.keys() | pinned.keys() if got.get(k) != pinned.get(k))
        assert moved == []


if __name__ == "__main__":
    src = Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else ROOT / "src"
    with tempfile.TemporaryDirectory() as tmp:
        tables = {"PINNED_ON": environment(), **dict(zip(("COMMANDS", "FILES"),
                                                        digests(src, Path(tmp))))}
    for name, table in tables.items():
        print(f"{name} = {{")
        print("".join(f"    {key!r}: {table[key]!r},\n" for key in sorted(table)) + "}")
