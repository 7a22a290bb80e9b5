"""The lazy ``qtoric`` package, the modules each command loads and the
command's one-thread OpenBLAS, each checked in a fresh interpreter."""

import os
import subprocess
import sys
import textwrap

import pytest

from helpers import child_env


def run_child(code: str, **env: str) -> str:
    """Stdout of ``python -c code``; ``env`` entries are set, the rest of
    the environment has no ``OPENBLAS_NUM_THREADS``."""
    full_env = child_env()
    full_env.pop("OPENBLAS_NUM_THREADS", None)
    full_env.update(env)
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)], capture_output=True, text=True, env=full_env
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_import_loads_no_numpy():
    run_child(
        """
        import sys, qtoric
        assert "numpy" not in sys.modules
        assert not [name for name in sys.modules if name.startswith("qtoric.")]
        assert "__getattr__" in vars(qtoric)
        """
    )


def test_unknown_name_raises_and_loads_nothing():
    run_child(
        """
        import sys, qtoric
        try:
            qtoric.no_such_name
        except AttributeError as exc:
            assert "no_such_name" in str(exc)
        else:
            raise AssertionError("qtoric.no_such_name did not raise")
        assert "numpy" not in sys.modules
        assert "__getattr__" in vars(qtoric)
        """
    )


def test_first_access_binds_each_name_from_its_submodule():
    run_child(
        """
        import sys, qtoric
        qtoric.analyze
        namespace = vars(qtoric)
        assert "__getattr__" not in namespace
        submodules = [module for name, module in sys.modules.items() if name.startswith("qtoric.")]
        for name in qtoric.__all__:
            obj = namespace[name]
            holders = [vars(module)[name] for module in submodules if name in vars(module)]
            assert holders or name == "__version__", name
            assert all(held is obj for held in holders), name
            # Classes and functions name their defining submodule.
            if getattr(obj, "__qualname__", None) == name:
                assert vars(sys.modules[obj.__module__])[name] is obj, name
        """
    )


def test_submodule_attribute_loads_the_package():
    run_child(
        """
        import qtoric
        assert qtoric.toric.cube is qtoric.cube
        assert "__getattr__" not in vars(qtoric)
        """
    )


def test_dir_lists_all():
    run_child(
        """
        import sys, qtoric
        assert set(qtoric.__all__) <= set(dir(qtoric))
        assert "numpy" not in sys.modules
        qtoric.QToricError
        assert set(qtoric.__all__) <= set(dir(qtoric))
        """
    )


def test_star_import_binds_all():
    run_child(
        """
        import qtoric
        namespace = {}
        exec("from qtoric import *", namespace)
        for name in qtoric.__all__:
            assert namespace[name] is vars(qtoric)[name], name
        """
    )


def test_commands_load_only_the_modules_they_run(tmp_path):
    # segre, polytope and embed call neither the analyzer, nor the measures,
    # nor the moment maps; the name the benchmark's tracer wraps still
    # resolves.
    state = tmp_path / "bell.json"
    state.write_text('{"qubits": 2, "amplitudes": [[1, 0], [0, 0], [0, 0], [1, 0]]}')
    factors = tmp_path / "factors.json"
    factors.write_text('{"factors": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}')
    run_child(
        f"""
        import sys, qtoric.cli
        for argv in (["segre", {str(state)!r}], ["polytope", "cube", "-m", "2"], ["embed", {str(factors)!r}]):
            assert qtoric.cli.main(argv) == 0, argv
        loaded = {{"qtoric.analyzer", "qtoric.measures", "qtoric.moment"}} & set(sys.modules)
        assert not loaded, loaded
        from qtoric.analyzer import analyze
        assert qtoric.cli.analyze is analyze
        """
    )


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_command_runs_openblas_on_one_thread():
    code = """
        import os, qtoric.__main__
        print(os.environ["OPENBLAS_NUM_THREADS"], len(os.listdir("/proc/self/task")))
        """
    assert run_child(code) == "1 1\n"


def test_command_keeps_a_preset_thread_count():
    code = "import os, qtoric.__main__; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert run_child(code, OPENBLAS_NUM_THREADS="2") == "2\n"


def test_library_leaves_the_thread_count_alone():
    code = "import os, qtoric.cli; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    assert run_child(code) == "None\n"
