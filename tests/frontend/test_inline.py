"""Function inlining: the Sec. IV-A future work, implemented."""

import pytest

from repro import ir
from repro.errors import LoweringError
from repro.frontend import compile_source
from repro.runtime import run_serial


UNIT = """
int relax(const int* restrict w, int v, int bound) {
  int x = w[v];
  if (x > bound) {
    x = bound;
  }
  return x;
}

void driver(const int* restrict w, int* restrict out, int n, int bound) {
  for (int i = 0; i < n; i++) {
    out[i] = relax(w, i, bound);
  }
}
"""


def test_call_inlined_no_intrinsic():
    f = compile_source(UNIT, name="driver")
    kinds = [s.kind for s in ir.walk(f.body)]
    assert "call" not in kinds  # relax() was spliced in
    assert kinds.count("load") == 1  # the w[v] load now belongs to driver


def test_inlined_semantics(tiny_config):
    f = compile_source(UNIT, name="driver")
    w = [5, 12, 7, 30]
    result = run_serial(f, {"w": w, "out": [0] * 4}, {"n": 4, "bound": 10}, config=tiny_config)
    assert result.arrays["out"] == [5, 10, 7, 10]


def test_inline_disabled_keeps_intrinsic():
    f = compile_source(UNIT, name="driver", inline=False)
    kinds = [s.kind for s in ir.walk(f.body)]
    assert "call" in kinds


def test_inlined_loads_become_decoupling_points():
    """The whole point: callee memory accesses participate in decoupling."""
    from repro.analysis import rank_decouple_points

    f = compile_source(UNIT, name="driver")
    assert any(p.cls == "@w" for p in rank_decouple_points(f))


def test_void_helper_inlined(tiny_config):
    src = """
    void bump(int* restrict a, int i) {
      a[i] = a[i] + 1;
    }
    void driver(int* restrict a, int n) {
      for (int i = 0; i < n; i++) {
        bump(a, i);
      }
    }
    """
    f = compile_source(src, name="driver")
    result = run_serial(f, {"a": [0, 0, 0]}, {"n": 3}, config=tiny_config)
    assert result.arrays["a"] == [1, 1, 1]


def test_nested_inlining(tiny_config):
    src = """
    int double_it(int x) { return x + x; }
    int quad(int x) { return double_it(double_it(x)); }
    void driver(int* restrict out, int n) {
      out[0] = quad(n);
    }
    """
    f = compile_source(src, name="driver")
    result = run_serial(f, {"out": [0]}, {"n": 3}, config=tiny_config)
    assert result.arrays["out"] == [12]


def test_recursion_rejected():
    src = """
    int f(int x) { return f(x); }
    void driver(int* restrict out) { out[0] = f(1); }
    """
    with pytest.raises(LoweringError, match="recursive"):
        compile_source(src, name="driver")


def test_unknown_calls_stay_intrinsic():
    src = """
    void helper(int* restrict a) { a[0] = extern_thing(); }
    void driver(int* restrict a) { helper(a); }
    """
    f = compile_source(src, name="driver")
    calls = [s for s in ir.walk(f.body) if s.kind == "call"]
    assert [c.func for c in calls] == ["extern_thing"]


def test_name_collisions_avoided(tiny_config):
    src = """
    int pick(int x) { int t = x + 1; return t; }
    void driver(int* restrict out, int n) {
      int t = 100;
      out[0] = pick(n) + t;
    }
    """
    f = compile_source(src, name="driver")
    result = run_serial(f, {"out": [0]}, {"n": 5}, config=tiny_config)
    assert result.arrays["out"] == [106]


def test_arg_count_mismatch():
    src = """
    int f(int a, int b) { return a; }
    void driver(int* restrict out) { out[0] = f(1); }
    """
    with pytest.raises(LoweringError, match="parameters"):
        compile_source(src, name="driver")


def test_inlined_kernel_pipelines(tiny_config):
    """End to end: an inlined two-level indirection decouples and runs."""
    from repro.core import ALL_PASSES, CompileOptions, compile_function
    from repro.runtime import run_pipeline

    src = """
    int lookup(const int* restrict table, int key) {
      return table[key];
    }
    void driver(const int* restrict a, const int* restrict table,
                int* restrict out, int n) {
      for (int i = 0; i < n; i++) {
        out[i] = lookup(table, a[i]);
      }
    }
    """
    f = compile_source(src, name="driver")
    pipe = compile_function(f, options=CompileOptions(num_stages=3, passes=ALL_PASSES))
    assert len(pipe.stages) + len(pipe.ras) >= 3
    a = [2, 0, 1, 2]
    table = [10, 11, 12]
    result = run_pipeline(
        pipe, {"a": a, "table": table, "out": [0] * 4}, {"n": 4}, config=tiny_config
    )
    assert result.arrays["out"] == [12, 10, 11, 12]
