"""Native align verbs: the C direction-code sweep against numpy.

Standing invariants:

* ``backend="native"`` ``align``/``align_many`` return exactly the
  numpy backend's alignments — score, aligned pairs and both
  intervals — for every mode the kernel covers, flat and non-flat
  integer models, ``N`` codes, empty sides and mixed shapes, and the
  score equals the per-cell reference DP;
* the native backend makes the numpy backend's ``memory`` decision:
  ``"linear"`` (and ``"auto"`` above the threshold) runs the
  Hirschberg walker, never the kernel; pairs past the kernel's int32
  headroom fall through to numpy too; ``force_fallback=True`` answers
  the same without the kernel;
* the loader refuses an extension built from other source (a wrong or
  missing ``SOURCE_HASH`` stamp) and says why.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import sysconfig
import threading
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace
from typing import Iterator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fragalign.engine.native as native_mod
from fragalign._native import (
    HAVE_NATIVE,
    KERNELS_C,
    NATIVE_ERROR,
    SOURCE_CHECK,
    SOURCE_HASH,
    check_stamp,
)
from fragalign.align.pairwise import (
    global_score_reference,
    local_score_reference,
    overlap_score_reference,
)
from fragalign.align.scoring_matrices import (
    SubstitutionModel,
    transition_transversion,
    unit_dna,
)
from fragalign.engine import AlignmentEngine, NativeBackend, NumpyBackend

MODES = ("global", "overlap", "local")
REFERENCE = {
    "global": global_score_reference,
    "overlap": overlap_score_reference,
    "local": local_score_reference,
}
needs_c = pytest.mark.skipif(
    not HAVE_NATIVE, reason=f"C extension unavailable: {NATIVE_ERROR}"
)


def _integer_model(upper: list[int], gap: int) -> SubstitutionModel:
    """A symmetric 5x5 integer model from its 15 upper-triangle values."""
    matrix = np.zeros((5, 5))
    matrix[np.triu_indices(5)] = upper
    matrix = np.triu(matrix) + np.triu(matrix, 1).T
    return SubstitutionModel(matrix=matrix, gap=float(gap))


# Flat (unit family) and non-flat integer models, plus random 5x5
# integer matrices — the kernel takes any of them.
models = st.one_of(
    st.sampled_from(
        [unit_dna(), unit_dna(1.0, -1.0, -2.0), transition_transversion()]
    ),
    st.builds(
        _integer_model,
        st.lists(st.integers(-4, 4), min_size=15, max_size=15),
        st.integers(-4, -1),
    ),
)
# Small alphabets make ties (the walk's tie order) common; N is code 4.
seqs = st.sampled_from(["ACGTN", "AC", "A", "ACGT", "GN"]).flatmap(
    lambda alphabet: st.text(alphabet=alphabet, min_size=0, max_size=20)
)
pair_lists = st.lists(st.tuples(seqs, seqs), min_size=1, max_size=6)


@contextmanager
def counting_kernel_calls() -> Iterator[list[int]]:
    """Records the pairs each native align kernel call sweeps."""
    calls: list[int] = []
    real = native_mod.align_codes_native

    def spy(acodes, *args):
        calls.append(len(acodes))
        return real(acodes, *args)

    native_mod.align_codes_native = spy
    try:
        yield calls
    finally:
        native_mod.align_codes_native = real


@pytest.fixture
def kernel_calls() -> Iterator[list[int]]:
    with counting_kernel_calls() as calls:
        yield calls


class TestParity:
    @settings(max_examples=100)
    @given(model=models, mode=st.sampled_from(MODES), pairs=pair_lists)
    def test_facade_equals_numpy_and_reference(self, model, mode, pairs):
        with AlignmentEngine(backend="native", model=model, mode=mode) as nat, \
                AlignmentEngine(backend="numpy", model=model, mode=mode) as ref:
            assert nat.backend.accelerates("align_many", model, mode) == HAVE_NATIVE
            got = nat.align_many(pairs)
            assert got == ref.align_many(pairs)
            for (a, b), aln in zip(pairs, got):
                assert nat.align(a, b) == aln
                assert aln.score == REFERENCE[mode](a, b, model)

    @needs_c
    @settings(max_examples=100)
    @given(
        model=models,
        mode=st.sampled_from(MODES),
        shape=st.tuples(st.integers(1, 24), st.integers(1, 24)),
        size=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_backend_bucket_runs_the_kernel(self, model, mode, shape, size, seed):
        rng = np.random.default_rng(seed)
        alphabet = np.array(list("ACGTN"))
        pairs = [
            ("".join(rng.choice(alphabet, shape[0])),
             "".join(rng.choice(alphabet, shape[1])))
            for _ in range(size)
        ]
        nat, ref = NativeBackend(require_native=True, chunk=2), NumpyBackend(chunk=2)
        with AlignmentEngine() as eng:
            batch = [eng.prepare(a, b) for a, b in pairs]
        with counting_kernel_calls() as calls:
            got = nat.align_many(batch, model, mode, memory="tensor")
        assert got == ref.align_many(batch, model, mode, memory="tensor")
        # one kernel call per chunk of the bucket
        assert calls == [min(2, size - lo) for lo in range(0, size, 2)]

    def test_mixed_shapes_and_empty_sides_in_one_batch(self):
        pairs = [
            ("ACGTACGTAC", "ACGTTCGTAC"), ("", "ACGT"), ("ACGT", ""), ("", ""),
            ("NNNN", "ACGN"), ("ACGTACGTAC", "TTTTTCGTAC"), ("A", "A"),
            ("GATTACA" * 5, "GATACA" * 6),
        ]
        for mode in MODES:
            with AlignmentEngine(backend="native", mode=mode) as nat, \
                    AlignmentEngine(backend="numpy", mode=mode) as ref:
                assert nat.align_many(pairs) == ref.align_many(pairs)


class TestFallThrough:
    PAIRS = [("ACGTACGTACGT", "ACGTTCGTACG"), ("AAAA", "AAAT")]

    @pytest.mark.parametrize("memory", ["tensor", "linear", "auto"])
    @pytest.mark.parametrize("mode", MODES)
    def test_memory_modes(self, mode, memory, kernel_calls):
        with AlignmentEngine(backend="native", mode=mode) as nat, \
                AlignmentEngine(backend="numpy", mode=mode) as ref:
            assert nat.align_many(self.PAIRS, memory=memory) == ref.align_many(
                self.PAIRS, memory=memory
            )
            assert nat.align(*self.PAIRS[0], memory=memory) == ref.align(
                *self.PAIRS[0], memory=memory
            )
        if memory == "linear" or not HAVE_NATIVE:
            assert kernel_calls == []
        else:
            assert kernel_calls

    @pytest.mark.parametrize("mode", MODES)
    def test_auto_resolves_like_numpy(self, mode, kernel_calls):
        # Above the threshold "auto" means the linear-memory walker on
        # both backends, decided on the same per-chunk cell count.
        nat = NativeBackend()
        nat._numpy.linear_auto_cells = 100
        ref = NumpyBackend(linear_auto_cells=100)
        with AlignmentEngine() as eng:
            batch = [eng.prepare(*self.PAIRS[0])] * 3
        assert nat.align_many(batch, unit_dna(), mode) == ref.align_many(
            batch, unit_dna(), mode
        )
        assert kernel_calls == []

    @pytest.mark.parametrize("mode", MODES)
    def test_int32_headroom_falls_through(self, mode, kernel_calls):
        big = SubstitutionModel(
            matrix=np.where(np.eye(5) > 0, 2.0**28, -(2.0**28)), gap=-(2.0**28)
        )
        nat, ref = NativeBackend(), NumpyBackend()
        assert nat.accelerates("align_many", big, mode) == HAVE_NATIVE
        with AlignmentEngine() as eng:
            batch = [eng.prepare("ACGTAC", "ACTTAC")] * 2
        got = nat.align_many(batch, big, mode)
        assert got == ref.align_many(batch, big, mode)
        assert got[0].score == REFERENCE[mode]("ACGTAC", "ACTTAC", big)
        assert kernel_calls == []

    @needs_c
    def test_kernel_refuses_past_headroom_and_bad_codes(self):
        from fragalign._native import align_codes_native

        ac = np.zeros((1, 8), dtype=np.uint8)
        huge = np.full((5, 5), 1 << 28, dtype=np.int32)
        with pytest.raises(ValueError):
            align_codes_native(ac, ac, huge, 1, "global")
        with pytest.raises(ValueError):
            align_codes_native(ac + 5, ac, np.ones((5, 5)), 1, "local")

    @pytest.mark.parametrize("mode", MODES)
    def test_force_fallback(self, mode, kernel_calls):
        fb = NativeBackend(force_fallback=True)
        assert not fb.accelerates("align", unit_dna(), mode)
        with AlignmentEngine() as eng:
            batch = [eng.prepare(a, b) for a, b in [self.PAIRS[0]] * 2]
        assert fb.align_many(batch, unit_dna(), mode) == NumpyBackend().align_many(
            batch, unit_dna(), mode
        )
        assert fb.align(batch[0], unit_dna(), mode) == NumpyBackend().align(
            batch[0], unit_dna(), mode
        )
        assert kernel_calls == []

    def test_unaccelerated_models_and_knobs(self):
        frac = SubstitutionModel(matrix=np.full((5, 5), 0.5), gap=-1.0)
        be = NativeBackend()
        assert not be.accelerates("align", frac, "local")
        assert not be.accelerates("align", unit_dna(1.0, -1.0, 0.0), "local")
        with AlignmentEngine(backend="native", model=frac, mode="local") as nat, \
                AlignmentEngine(backend="numpy", model=frac, mode="local") as ref:
            assert nat.align_many(self.PAIRS) == ref.align_many(self.PAIRS)
        with AlignmentEngine(backend="native") as nat, AlignmentEngine() as ref:
            for kw in ({"mode": "banded", "band": 3},
                       {"gap_open": -4.0, "gap_extend": -1.0}):
                assert nat.align_many(self.PAIRS, **kw) == ref.align_many(self.PAIRS, **kw)


class TestStaleBuildGuard:
    def test_check_stamp_outcomes(self, tmp_path):
        src = tmp_path / "_kernels.c"
        src.write_bytes(b"int x;\n")
        digest = hashlib.sha256(b"int x;\n").hexdigest()
        assert check_stamp(SimpleNamespace(SOURCE_HASH=digest), src) == (None, "match")
        error, outcome = check_stamp(SimpleNamespace(SOURCE_HASH="0" * 64), src)
        assert outcome == "mismatch" and error.startswith("stale build")
        error, outcome = check_stamp(SimpleNamespace(), src)
        assert outcome == "no stamp" and "SOURCE_HASH" in error
        error, outcome = check_stamp(
            SimpleNamespace(SOURCE_HASH=digest), tmp_path / "absent.c"
        )
        assert error is None and outcome.startswith("unchecked")

    @needs_c
    def test_live_build_matches_source(self):
        assert SOURCE_CHECK == "match"
        assert SOURCE_HASH == hashlib.sha256(KERNELS_C.read_bytes()).hexdigest()

    @pytest.mark.parametrize("stamp", ["0" * 64, None])
    def test_wrongly_stamped_so_falls_back(self, tmp_path, stamp):
        cc = (sysconfig.get_config_var("CC") or "cc").split()
        so = tmp_path / ("_kernels" + sysconfig.get_config_var("EXT_SUFFIX"))
        cmd = cc + ["-O0", "-fPIC", "-shared", "-I", sysconfig.get_paths()["include"]]
        if stamp is not None:
            cmd.append(f'-DFRAGALIGN_SOURCE_HASH="{stamp}"')
        try:
            proc = subprocess.run(
                cmd + [str(KERNELS_C), "-o", str(so)],
                capture_output=True, text=True, timeout=120,
            )
        except OSError as exc:
            pytest.skip(f"no C compiler: {exc}")
        if proc.returncode != 0:
            pytest.skip(f"no C compiler: {proc.stderr[-200:]}")
        probe = (
            "import importlib.util, json, sys\n"
            "name = 'fragalign._native._kernels'\n"
            f"spec = importlib.util.spec_from_file_location(name, {str(so)!r})\n"
            "mod = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(mod)\n"
            "sys.modules[name] = mod\n"
            "from fragalign import _native\n"
            "from fragalign.engine import AlignmentEngine, NativeBackend\n"
            "with AlignmentEngine(backend='native', mode='local') as eng:\n"
            "    aln = eng.align('ACGTAC', 'ACTTAC')\n"
            "print(json.dumps([_native.HAVE_NATIVE, _native.NATIVE_ERROR,\n"
            "                  NativeBackend().use_c, aln.score, _native.build_info()]))\n"
        )
        src = str(Path(KERNELS_C).resolve().parents[2])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            env=env, timeout=120, check=True,
        )
        have, error, use_c, score, info = json.loads(out.stdout.strip().splitlines()[-1])
        assert not have and not use_c
        assert error.startswith("stale build")
        assert ("SOURCE_HASH" in error) == (stamp is None)
        assert score == local_score_reference("ACGTAC", "ACTTAC")
        assert info["impl"] == "uint64"
        assert info["native"] == ("stale: no stamp" if stamp is None else "stale: mismatch")


class TestBuildInfo:
    """``fragalign_build_info`` names the kernel build a server runs."""

    def test_exposition_names_the_live_build(self):
        from fragalign.obs.metrics import parse_exposition
        from fragalign.service import AlignmentService, ServiceConfig

        service = AlignmentService(ServiceConfig(port=0))
        try:
            samples = parse_exposition(service.render_metrics())["samples"]
        finally:
            service.close()
        rows = [(dict(labels), value) for (name, labels), value in samples.items()
                if name == "fragalign_build_info"]
        assert len(rows) == 1
        labels, value = rows[0]
        assert value == 1 and labels["numpy"] == np.__version__
        if HAVE_NATIVE:  # the session's C build
            assert (labels["impl"], labels["native"]) == ("c", "ok")
        else:  # FRAGALIGN_TEST_NATIVE=0, or no compiler
            assert labels["impl"] == "uint64"
            assert labels["native"] in ("not built", "import failed")

    def test_without_the_extension(self):
        probe = (
            "import json, sys\n"
            "sys.modules['fragalign._native._kernels'] = None  # import fails\n"
            "from fragalign import _native\n"
            "print(json.dumps(_native.build_info()))\n"
        )
        src = str(Path(KERNELS_C).resolve().parents[2])
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src), timeout=120, check=True,
        )
        info = json.loads(out.stdout.strip().splitlines()[-1])
        assert info["impl"] == "uint64"
        assert info["native"] in ("not built", "import failed")
        assert info["numpy"] == np.__version__


class TestServed:
    def test_served_native_align_equals_numpy(self, tmp_path, kernel_calls):
        from fragalign.service.client import AlignmentClient
        from fragalign.service.server import (
            ServiceConfig,
            run_server,
            wait_for_port_file,
        )

        port_file = str(tmp_path / "svc.port")
        config = ServiceConfig(host="127.0.0.1", port=0, backend="numpy", cache_size=0)
        thread = threading.Thread(target=run_server, args=(config, port_file), daemon=True)
        thread.start()
        port = wait_for_port_file(port_file)
        pairs = [("ACGTACGTAC", "ACGTTCGTAC"), ("GATTACA" * 3, "GATACA" * 3), ("", "ACGT")]
        try:
            with AlignmentClient("127.0.0.1", port) as client, AlignmentEngine() as ref:
                for mode in MODES:
                    got = client.align_many(pairs, mode=mode, backend="native")
                    assert got == ref.align_many(pairs, mode=mode)
                    assert client.align(*pairs[1], mode=mode, backend="native") == got[1]
                client.shutdown()
        finally:
            thread.join(timeout=10)
        assert bool(kernel_calls) == HAVE_NATIVE
