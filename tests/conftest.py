import subprocess
import sys
from importlib import resources

import pytest


def run_cli(*args: str):
    """Run the CLI in a subprocess; returns (exit_code, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-m", "onegenus", *args],
        capture_output=True,
        text=True,
        timeout=600,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture
def cli():
    return run_cli


@pytest.fixture(scope="session")
def stream_kernels(tmp_path_factory):
    """The stream kernel as the package builds it, then a second build of
    _stream.c with ONEGENUS_NO_SIMD defined, which always runs the plain-C
    first window, so that both paths are tested on any CPU; empty where the
    kernel cannot be built."""
    from onegenus import sieve

    kernel = sieve._stream_kernel()
    if kernel is None:
        return []
    source = resources.files("onegenus").joinpath("_stream.c").read_bytes()
    path = tmp_path_factory.mktemp("plain-kernel") / "stream-plain.so"
    subprocess.run(["cc", *sieve._kernel_flags(), "-DONEGENUS_NO_SIMD", "-shared", "-fPIC",
                    "-x", "c", "-", "-o", str(path)], input=source, capture_output=True, check=True)
    plain = sieve._load_kernel(str(path))
    assert plain.simd == "none"
    return [kernel, plain]


@pytest.fixture(scope="session")
def compiled_kernels(stream_kernels):
    """stream_kernels, skipping where the kernel cannot be built."""
    if not stream_kernels:
        pytest.skip("the compiled stream kernel cannot be built here")
    return stream_kernels
