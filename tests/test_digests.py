"""The record checksum and the config hash come from CPython's built-in
digest modules, so no command loads OpenSSL through `_hashlib`; they must
equal hashlib's digests, and so must the `hashlib` fallback."""

import hashlib
import os
import subprocess
import sys

from hypothesis import given
from hypothesis import strategies as st

import fedsim
from fedsim.config import config_hash
from fedsim.flengine import _checksum
from fedsim.numcore import RngStream
from test_config import MINIMAL, parse_config_string

_SRC = os.path.dirname(os.path.dirname(fedsim.__file__))


def _python(code: str, *args: str, env=None) -> str:
    env = {**os.environ, **(env or {}), "PYTHONPATH": os.pathsep.join([_SRC, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True
    )
    return proc.stdout


def _config(seed: int, rounds: int, lr: float):
    text = MINIMAL.replace("seed = 7", f"seed = {seed}").replace("rounds = 40", f"rounds = {rounds}")
    return parse_config_string(text.replace("learning_rate = 0.1", f"learning_rate = {lr!r}"))


_SEEDS = st.integers(min_value=0, max_value=2**63 - 1)
_ROUNDS = st.integers(min_value=25, max_value=10_000)  # the default warm-up and final tuning need 25
_RATES = st.floats(min_value=1e-6, max_value=10.0)


@given(st.binary(max_size=4096))
def test_checksum_is_blake2b_64(payload):
    assert _checksum(payload) == int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "little")


@given(_SEEDS, _ROUNDS, _RATES)
def test_config_hash_is_sha256(seed, rounds, lr):
    cfg = _config(seed, rounds, lr)
    assert config_hash(cfg) == hashlib.sha256(cfg.canonical.encode("utf-8")).digest()


# Blocks the built-in modules before fedsim is imported, so numcore takes
# hashlib's digests; prints them for the payloads given as hex arguments.
_FALLBACK = """
import hashlib, sys
for name in ("_blake2", "_sha2", "_sha256"):
    sys.modules[name] = None
from fedsim import numcore
from fedsim.flengine import _checksum
assert numcore.blake2b is hashlib.blake2b and numcore.sha256 is hashlib.sha256
for arg in sys.argv[1:]:
    payload = bytes.fromhex(arg)
    print(_checksum(payload), numcore.sha256(payload).hexdigest())
"""


def test_hashlib_fallback_gives_the_same_digests():
    # lengths around BLAKE2b's 128-byte and SHA-256's 64-byte blocks
    rng = RngStream(5)
    payloads = [rng.uniforms(n).tobytes()[:k] for n, k in ((1, 0), (1, 1), (8, 63), (8, 64), (17, 129), (600, 4801))]
    lines = _python(_FALLBACK, *(p.hex() for p in payloads)).splitlines()
    assert lines == [
        f"{_checksum(p)} {hashlib.sha256(p).hexdigest()}" for p in payloads
    ]


def test_commands_leave_openssl_out(tmp_path):
    (tmp_path / "exp.ini").write_text(MINIMAL)
    code = (
        "import sys\n"
        "from fedsim.cli import main\n"
        "for argv in (['train'], ['recover', '--method', 'fedrecover']):\n"
        "    assert main([*argv, '-c', sys.argv[1]]) == 0\n"
        "print(sorted(m for m in sys.modules if 'hashlib' in m))\n"
    )
    out = _python(code, str(tmp_path / "exp.ini"), env={"FEDSIM_OUTPUT_ROOT": str(tmp_path)})
    assert out == "[]\n"
    assert (tmp_path / "runs" / "demo" / "summary_fedrecover.json").exists()
