"""Self-check harness: scopes, determinism, result records."""

import pytest

from lehmer import CheckResult, UsageError, available_scopes, run_checks


class TestScopes:
    def test_all_is_available(self):
        scopes = available_scopes()
        assert "all" in scopes
        assert "bounds" in scopes
        assert len(scopes) >= 5

    def test_unknown_scope(self):
        with pytest.raises(UsageError):
            run_checks("nonsense")

    @pytest.mark.parametrize("samples", [0, -5])
    def test_sample_count_below_one(self, samples):
        # a check over no samples would pass without checking anything
        with pytest.raises(UsageError):
            run_checks("parity", samples=samples)


class TestResults:
    def test_bounds_scope_passes(self):
        results = run_checks("bounds")
        assert results
        for result in results:
            assert isinstance(result, CheckResult)
            assert result.passed
            assert result.samples >= 1
            assert result.name

    def test_all_scopes_pass_at_reduced_samples(self):
        results = run_checks("all", seed=3, samples=25)
        assert len(results) >= 10
        failed = [r.name for r in results if not r.passed]
        assert failed == []

    def test_deterministic_detail(self):
        first = run_checks("n2", seed=5, samples=20)
        second = run_checks("n2", seed=5, samples=20)
        assert [(r.name, r.passed, r.detail) for r in first] == [
            (r.name, r.passed, r.detail) for r in second
        ]

    def test_all_deduplicates(self):
        results = run_checks("all", seed=1, samples=5)
        names = [r.name for r in results]
        assert len(names) == len(set(names))

    def test_every_check_sits_in_one_scope(self):
        from lehmer import verify

        checks = [fn for group in verify._CHECKS.values() for fn, _ in group]
        defined = [getattr(verify, name) for name in dir(verify) if name.startswith("check_")]
        assert sorted(fn.__name__ for fn in checks) == sorted(fn.__name__ for fn in defined)
