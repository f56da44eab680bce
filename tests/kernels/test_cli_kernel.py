"""CLI wiring of the kernel dispatch seam and the monitor batch/webhook flags."""

import pytest

from repro.cli import build_parser, main


class TestAnalyzeKernelFlag:
    @pytest.mark.parametrize("tier", ["auto", "python"])
    def test_kernel_choices_run(self, tier, capsys):
        assert main(
            ["analyze", "--builtin", "fps", "--quiet", "--kernel", tier]
        ) == 0
        assert "MPMCS" in capsys.readouterr().out

    def test_profile_prints_the_chosen_kernel(self, capsys):
        assert main(
            ["analyze", "--builtin", "fps", "--quiet", "--profile", "--kernel", "python"]
        ) == 0
        output = capsys.readouterr().out
        assert "kernel" in output
        assert "python" in output

    def test_unknown_kernel_is_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["analyze", "--builtin", "fps", "--kernel", "cuda"]
            )

    def test_default_is_auto(self):
        args = build_parser().parse_args(["analyze", "--builtin", "fps"])
        assert args.kernel == "auto"


class TestMonitorFlags:
    def test_batch_size_and_webhook_defaults(self):
        args = build_parser().parse_args(["monitor", "--builtin", "fps"])
        assert args.batch_size == 1
        assert args.alert_webhook is None

    def test_batched_local_monitor_run(self, capsys):
        assert main(
            ["monitor", "--builtin", "fps", "--updates", "6", "--seed", "1",
             "--batch-size", "3"]
        ) == 0
        output = capsys.readouterr().out
        assert "updates:  6" in output
