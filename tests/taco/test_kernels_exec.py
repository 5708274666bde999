"""End-to-end Taco kernels: serial, Phloem, and striped DP all match oracles."""

import pytest

from repro.core import CompileOptions, compile_c
from repro.frontend import compile_source
from repro.runtime import run_pipeline, run_serial
from repro.taco import (
    ALPHA,
    BETA,
    dense_input,
    mtmul_kernel,
    ref_mtmul,
    ref_residual,
    ref_sddmm,
    ref_spmv,
    residual_kernel,
    sddmm_kernel,
    spmv_kernel,
)
from repro.taco.parallel import stripe_data_parallel
from repro.workloads.matrices import random_matrix


@pytest.fixture(scope="module")
def matrix():
    return random_matrix(60, 4, seed=21)


def _approx(a, b, tol=1e-9):
    return all(abs(p - q) <= tol * max(1.0, abs(q)) for p, q in zip(a, b))


class TestSpMV:
    def test_all_variants(self, matrix, tiny_config):
        kernel = spmv_kernel()
        x = dense_input(matrix.ncols, 1)
        arrays, scalars = kernel.bind({"A": matrix, "x": x})
        expected = ref_spmv(matrix, x)
        f = compile_source(kernel.source)
        assert run_serial(f, arrays, scalars, config=tiny_config).arrays["y"] == expected
        pipe = compile_c(kernel.source, options=CompileOptions(num_stages=4))
        assert run_pipeline(pipe, arrays, scalars, config=tiny_config).arrays["y"] == expected
        dp = stripe_data_parallel(f, 3)
        dp_scalars = dict(scalars, nthreads=3)
        assert run_pipeline(dp, arrays, dp_scalars, config=tiny_config).arrays["y"] == expected


class TestResidual:
    def test_serial_and_phloem(self, matrix, tiny_config):
        kernel = residual_kernel()
        x = dense_input(matrix.ncols, 2)
        b = dense_input(matrix.nrows, 3)
        arrays, scalars = kernel.bind({"A": matrix, "x": x, "b": b})
        expected = ref_residual(matrix, x, b)
        f = compile_source(kernel.source)
        assert run_serial(f, arrays, scalars, config=tiny_config).arrays["y"] == expected
        pipe = compile_c(kernel.source, options=CompileOptions(num_stages=4))
        assert run_pipeline(pipe, arrays, scalars, config=tiny_config).arrays["y"] == expected


class TestMTMul:
    def test_serial_and_phloem(self, matrix, tiny_config):
        kernel = mtmul_kernel()
        x = dense_input(matrix.nrows, 4)
        z = dense_input(matrix.ncols, 5)
        arrays, scalars = kernel.bind(
            {"A": matrix, "x": x, "z": z, "alpha": ALPHA, "beta": BETA}
        )
        expected = ref_mtmul(matrix, x, z)
        f = compile_source(kernel.source)
        assert run_serial(f, arrays, scalars, config=tiny_config).arrays["y"] == expected
        pipe = compile_c(kernel.source, options=CompileOptions(num_stages=4))
        assert run_pipeline(pipe, arrays, scalars, config=tiny_config).arrays["y"] == expected

    def test_dp_with_atomics(self, matrix, tiny_config):
        kernel = mtmul_kernel()
        x = dense_input(matrix.nrows, 4)
        z = dense_input(matrix.ncols, 5)
        arrays, scalars = kernel.bind(
            {"A": matrix, "x": x, "z": z, "alpha": ALPHA, "beta": BETA}
        )
        f = compile_source(kernel.source)
        dp = stripe_data_parallel(f, 4, atomic_arrays=("y",))
        from repro.ir import walk

        atomics = [
            s for stage in dp.stages for s in walk(stage.body) if s.kind == "atomic_rmw"
        ]
        assert atomics  # the scatter update became fetch-and-add
        dp_scalars = dict(scalars, nthreads=4)
        got = run_pipeline(dp, arrays, dp_scalars, config=tiny_config).arrays["y"]
        assert _approx(got, ref_mtmul(matrix, x, z))


class TestSDDMM:
    def test_serial_and_phloem(self, tiny_config):
        matrix = random_matrix(25, 4, seed=22)
        kdim = 6
        c = dense_input(matrix.nrows * kdim, 6)
        d = dense_input(kdim * matrix.ncols, 7)
        kernel = sddmm_kernel()
        arrays, scalars = kernel.bind({"B": matrix, "C": (c, kdim), "D": (d, matrix.ncols)})
        expected = ref_sddmm(matrix, c, kdim, d, matrix.ncols)
        f = compile_source(kernel.source)
        assert run_serial(f, arrays, scalars, config=tiny_config).arrays["A_val"] == expected
        pipe = compile_c(kernel.source, options=CompileOptions(num_stages=4))
        assert run_pipeline(pipe, arrays, scalars, config=tiny_config).arrays["A_val"] == expected


def test_striping_barriers_between_nests(matrix):
    kernel = mtmul_kernel()
    f = compile_source(kernel.source)
    dp = stripe_data_parallel(f, 2)
    from repro.ir import walk

    for stage in dp.stages:
        kinds = [s.kind for s in stage.body]
        assert kinds.count("barrier") >= 2  # between nests + at end
