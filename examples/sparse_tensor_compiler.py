"""Domain-specific pipeline generation (paper Sec. IV-D).

Drives the mini-Taco tensor compiler: a one-line tensor expression becomes
CSR C code, which Phloem then pipelines — no human ever writes the loop
nest. Shown for SpMV and the four-operand MTMul.

Run:  python examples/sparse_tensor_compiler.py
"""

from repro.core import CompileOptions, compile_c, pipeline_summary
from repro.frontend import compile_source
from repro.pipette import SCALED_1CORE
from repro.runtime import run_pipeline, run_serial
from repro.taco import ALPHA, BETA, dense_input, mtmul_kernel, ref_mtmul, ref_spmv, spmv_kernel
from repro.workloads.matrices import random_matrix


def demo(title, kernel, data, expected, output):
    print("=" * 60)
    print(title)
    print("=" * 60)
    print(kernel.source)
    arrays, scalars = kernel.bind(data)
    function = compile_source(kernel.source)
    serial = run_serial(function, arrays, scalars, config=SCALED_1CORE)
    pipeline = compile_c(kernel.source, options=CompileOptions(num_stages=4))
    result = run_pipeline(pipeline, arrays, scalars, config=SCALED_1CORE)
    assert serial.arrays[output] == expected
    assert result.arrays[output] == expected
    print("pipeline: %s" % pipeline_summary(pipeline))
    print("speedup over Taco-emitted serial: %.2fx\n" % (serial.cycles / result.cycles))


def main():
    matrix = random_matrix(2500, 7, seed=11)
    x = dense_input(matrix.ncols, 1)

    demo(
        "SpMV:  y(i) = A(i,j) * x(j)",
        spmv_kernel(),
        {"A": matrix, "x": x},
        ref_spmv(matrix, x),
        "y",
    )

    xr = dense_input(matrix.nrows, 4)
    z = dense_input(matrix.ncols, 3)
    demo(
        "MTMul: y(j) = alpha * A(i,j) * x(i) + beta * z(j)",
        mtmul_kernel(),
        {"A": matrix, "x": xr, "z": z, "alpha": ALPHA, "beta": BETA},
        ref_mtmul(matrix, xr, z),
        "y",
    )


if __name__ == "__main__":
    main()
