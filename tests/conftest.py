def pytest_addoption(parser):
    parser.addoption("--record-golden-run", action="store_true",
                     help="write the artifact hashes of the golden-run tests "
                          "to tests/golden_run_sha256.json under this "
                          "OpenBLAS core and numpy version, instead of "
                          "checking them")
