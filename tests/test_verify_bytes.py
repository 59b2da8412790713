"""Byte identity of `qcrit verify`: the stdout and exit code of small runs,
recorded as SHA-256 digests before the suites moved into one registry. The
runs over fields of more than 128 elements were recorded while those fields
still used per-element polynomial arithmetic, before every field got
operation tables.

Neither text nor JSON output carries a wall-clock time without --timing,
so both are hashed as printed. The text digests were taken from the output
of the run that printed each suite's time as " (N ms)", with those removed.
"""

import hashlib

import pytest

from qcrit.cli import main

SMALL = ("--n", "2", "--prec", "32", "--trials", "2", "--seed", "7",
         "--m-bound", "64", "--ell-bound", "3", "--c-bound", "50",
         "--oracle-bound", "500", "--bound", "200", "--k-bound", "7",
         "--proj-ell-bound", "1", "--proj-prec", "32")

# (format, verify arguments, exit code, SHA-256 of stdout)
RUNS = [
    ("json", ("admissible-order", "--p", "3", "--lambda", "1",
              "--m-bound", "243", "--ell-bound", "4"), 0,
     "14c231b3b76184b69ad60873e7e514cb60d8b8374975f2420435e81b067ec78d"),
    ("json", ("admissible-witness", "--p", "3", "--lambda", "1",
              "--m-bound", "243", "--ell-bound", "4"), 0,
     "e036e23e1fbfc754ea7a3754d27627539d9cd5dc5ac9052668e0fbb92fc59402"),
    ("json", ("orbit-min", "--p", "3", "--lambda", "2", "--c-bound", "200",
              "--oracle-bound", "3000"), 0,
     "e39b5927fefb55506d7abd5210ed1500c2815d03b637469e61c4ac6f39e59cd5"),
    ("json", ("cyclic-digits", "--p", "3", "--lambda", "2", "--bound", "1200"),
     0, "4c89407705d0882e12bf89566c397f8d984f530739500b92f5a28d77ee683674"),
    ("json", ("equivariance", "--p", "2", "--lambda", "2", "--n", "2",
              "--prec", "96", "--trials", "5", "--seed", "7"), 0,
     "c21b515619fd3a3326deed4c344dc826f07e92d6ce46e74f8f9803fef1f12b0c"),
    ("json", ("logderiv", "--p", "3", "--lambda", "1", "--prec", "96",
              "--trials", "3", "--seed", "7"), 0,
     "e005a3cc0cdecb7f62f2f29831467bad74b8fddb89cb8b5c93ef6268f86239fa"),
    ("json", ("projection", "--p", "2", "--lambda", "1", "--n", "2",
              "--proj-prec", "64", "--k-bound", "7", "--proj-ell-bound", "2"),
     0, "affa988f9cbf96ecbff5e3ef3605b85705e25d5ad776d8701fe0f672bd5de627"),
    ("json", ("coleman", "--p", "2", "--lambda", "1", "--n", "2",
              "--prec", "96", "--trials", "5", "--seed", "7"), 0,
     "19cf54d6cd6f0823f49cdc58a938f1c1d09c0aa9b2b052de04eb274e3c872920"),
    ("json", ("all", "--p", "2", "--lambda", "2", *SMALL), 0,
     "757f68df34d7b117a49780295fc19211c45dfb9ffc88368f4acc076f9438a52b"),
    ("text", ("all", "--p", "2", "--lambda", "2", *SMALL), 0,
     "8ee05e1d149bc382780f8edc7f5be0a63f8d3a354988a810efb6a6e419b6c2b1"),
    ("json", ("all", "--p", "3", "--lambda", "1", *SMALL), 0,
     "46ef68eec571f0fa1501c4b91cd9e74facc8f0a5e0bca7d4aa74efd4e19c36b9"),
    ("text", ("all", "--p", "3", "--lambda", "1", *SMALL), 0,
     "d3b6987e9277bff48fb253ead194380b2c1c48c5a7cb49da97399c9e536d9c19"),
    # a trial count of 0 means the suite's default (100 for logderiv)
    ("json", ("logderiv", "--p", "2", "--lambda", "1", "--prec", "8",
              "--trials", "0"), 0,
     "6b45fe135f5113527bd9bce7c23d8ec2eb3a00eab1ba7288ccc54f4d818d52d6"),
    # a negative trial count runs no trial
    ("json", ("logderiv", "--p", "2", "--lambda", "1", "--prec", "8",
              "--trials", "-1"), 0,
     "10b1f73e18a2aeeda5c3ead959998f8db337212e52f8c98a6838601d71ce706a"),
    # an admissible bound of 0 means the desk default
    ("json", ("admissible-order", "--p", "2", "--lambda", "1",
              "--m-bound", "64", "--ell-bound", "0"), 0,
     "daeab0171d2a9abb25fb6c273a80454b55886c787e98273f282bd50d14254398"),
    # lambda does not divide n: Coleman runs over the degree-1 extension
    ("json", ("coleman", "--p", "2", "--lambda", "2", "--n", "3",
              "--prec", "16", "--trials", "2"), 0,
     "e3c04e213fb4cc8858322731303a64ac98d50873eed619a45e60367bc6ee97b2"),
    # fields of 256, 243, 256, 512 and 729 elements
    ("json", ("equivariance", "--p", "2", "--lambda", "4", "--n", "8",
              "--prec", "32", "--trials", "2", "--seed", "7"), 0,
     "d6f90e6c0085f438c03b34615f5eb99e87e8c5050fac9edcb980bdb597cf19e7"),
    ("json", ("logderiv", "--p", "3", "--lambda", "1", "--n", "5",
              "--prec", "32", "--trials", "1", "--seed", "7"), 0,
     "429c6dae0f956a25d47e7c6bfdae6a01a041a28da3281e753d26f59fde20d7cb"),
    ("json", ("coleman", "--p", "2", "--lambda", "2", "--n", "8",
              "--prec", "32", "--trials", "2", "--seed", "7"), 0,
     "d779b1baaa6baaa1a6e1943aad14902aa550c9df32b9d57d22948268cbb6ff5b"),
    ("json", ("logderiv", "--p", "2", "--lambda", "1", "--n", "9",
              "--prec", "24", "--trials", "1", "--seed", "7"), 0,
     "ff603fdd77d13d997b511bfa5dabaeae2d578b3c63b6d9d80406090ca64bbfd4"),
    ("json", ("equivariance", "--p", "3", "--lambda", "2", "--n", "6",
              "--prec", "24", "--trials", "2", "--seed", "7"), 0,
     "a4ef801382565bb25315703c500fb895d6fd0549b3ac9cc663b1d7173733bf5a"),
    # the admissible sweeps at the desk bounds of p = 3 and p = 2, recorded
    # while admissible_blocks still listed its blocks ell then j
    ("json", ("admissible-order", "--p", "3", "--lambda", "1",
              "--m-bound", "2187", "--ell-bound", "7"), 0,
     "b5c5c79be972ceb90a97db76dc03c88de906e3bb5aa9847b105338f6f139d8e0"),
    ("json", ("admissible-witness", "--p", "3", "--lambda", "1",
              "--m-bound", "2187", "--ell-bound", "7"), 0,
     "d5e829dc0783608ccd1fad7cde5832987906e27480cdc3fa38d4455d5ea822ea"),
    ("json", ("admissible-order", "--p", "2", "--lambda", "1",
              "--m-bound", "4096", "--ell-bound", "12"), 0,
     "b5e07d41b485e2d4267b3b65e74b810a5d07404f6a49de1fcd7811885dd47925"),
    ("json", ("admissible-witness", "--p", "2", "--lambda", "1",
              "--m-bound", "4096", "--ell-bound", "12"), 0,
     "0f6c1abdd9dac3a2ee2a1e9f5d3eb11d840f66f77af798c3a88bc2bea3b17a09"),
]


@pytest.mark.parametrize("fmt,args,code,digest", RUNS,
                         ids=[f"{fmt}-{args[0]}-{i}"
                              for i, (fmt, args, *_) in enumerate(RUNS)])
def test_verify_stdout_is_byte_identical(capsys, fmt, args, code, digest):
    assert main(["--format", fmt, "verify", *args]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
