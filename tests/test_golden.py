"""Every CLI output of the golden sweep (`golden.py`) against the committed
manifest: each output file, stdout, stderr and exit code, replayed
in-process through `cli.main`."""

import golden


def test_every_cli_output_matches_the_golden_manifest(tmp_path):
    got = golden.sweep(tmp_path)
    assert golden.differences(got, golden.load()) == []
