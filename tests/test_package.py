import types

import fluidq


def test_public_names_resolve():
    assert len(set(fluidq.__all__)) == len(fluidq.__all__)
    for name in fluidq.__all__:
        value = getattr(fluidq, name)
        # submodules are reachable as attributes but are not the public API
        assert not isinstance(value, types.ModuleType), name


def test_benchmark_entry_points_resolve(case_a):
    # bench/run.py drives the CLI through fluidq.cli.main and builds paths in
    # this call form; bench/spans.py traces run_analysis under fluidq.cli
    assert callable(fluidq.cli.main)
    assert fluidq.cli.run_analysis is fluidq.run_analysis
    sol = fluidq.solve_static_allocation(case_a)
    paths = fluidq.enumerate_simple_paths(sol, fluidq.activity_set(case_a), case_a)
    assert [p.leaf_pair for p in paths] == [(1, 5), (2, 3)]
