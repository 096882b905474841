"""DPL003 (clip-noise-account-order) fixture tests."""

from repro.analysis import lint_source

from tests.analysis.helpers import lint_fixture, rule_ids

PATH = "src/repro/core/engine/custom_engine.py"
SELECT = ("DPL003",)


class TestOrderingFlags:
    def test_bad_fixture_fires(self):
        violations = lint_fixture("ordering_bad.py", PATH, select=SELECT)
        assert rule_ids(violations) == {"DPL003"}

    def test_apply_before_noise(self):
        violations = lint_fixture("ordering_bad.py", PATH, select=SELECT)
        assert any("applied before" in v.message for v in violations)

    def test_missing_ledger_interaction(self):
        violations = lint_fixture("ordering_bad.py", PATH, select=SELECT)
        assert any("without any ledger" in v.message for v in violations)

    def test_literal_sigma(self):
        violations = lint_fixture("ordering_bad.py", PATH, select=SELECT)
        assert any("hard-coded literal" in v.message for v in violations)

    def test_noise_before_clip(self):
        violations = lint_fixture("ordering_bad.py", PATH, select=SELECT)
        assert any("before clipping" in v.message for v in violations)

    def test_noise_before_fused_update_fires(self):
        # The fused kernel is a clip site, so noising its input is a
        # noise-before-clip violation on the fixture's last function.
        violations = lint_fixture("ordering_bad.py", PATH, select=SELECT)
        flagged_lines = {
            v.line for v in violations if "before clipping" in v.message
        }
        assert len(flagged_lines) >= 2  # classic variant + fused variant

    def test_literal_gaussian_mechanism_multiplier(self):
        source = (
            "from repro.privacy.mechanisms import GaussianMechanism\n"
            "def f():\n"
            "    return GaussianMechanism(noise_multiplier=2.5)\n"
        )
        violations = lint_source(source, path=PATH)
        assert any(v.rule_id == "DPL003" for v in violations)


class TestOrderingClean:
    def test_good_fixture_is_clean(self):
        assert lint_fixture("ordering_good.py", PATH, select=SELECT) == []

    def test_out_of_scope_module_is_ignored(self):
        violations = lint_fixture(
            "ordering_bad.py", "src/repro/data/loader.py", select=SELECT
        )
        assert violations == []

    def test_fused_clip_site_is_recognized(self):
        # A function that runs the fused kernel (internal clip) and only
        # then noises + accounts is the sanctioned ordering: no flag.
        source = (
            "def step(backend, theta, chunks, spec, config, step_rng, ledger):\n"
            "    deltas = backend.fused_multi_bucket_update(theta, chunks, spec)\n"
            "    sigma = config.noise_multiplier\n"
            "    noised = [d + step_rng.normal(0.0, sigma) for d in deltas]\n"
            "    ledger.track_budget(1.0, sigma)\n"
            "    return noised\n"
        )
        violations = lint_source(source, path=PATH)
        assert not [v for v in violations if v.rule_id == "DPL003"]

    def test_shipped_engine_is_clean(self):
        from tests.analysis.helpers import REPO_ROOT

        for relative in (
            "src/repro/core/engine/engine.py",
            "src/repro/core/engine/stages.py",
            "src/repro/privacy/mechanisms.py",
            # The widened scope covers the backend kernels: the fused
            # fast path must never trip the ordering rule itself.
            "src/repro/nn/backends/base.py",
            "src/repro/nn/backends/reference.py",
            "src/repro/nn/backends/fast.py",
        ):
            source = (REPO_ROOT / relative).read_text()
            violations = lint_source(source, path=relative)
            assert not [v for v in violations if v.rule_id == "DPL003"], relative
