# Convenience targets for the EDR reproduction.

PYTHON ?= python3

.PHONY: test lint bench bench-full figures quick-figures headline clean

test:
	$(PYTHON) -m pytest tests/

lint:
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests benchmarks; \
	else \
		echo "ruff not installed; skipping lint (CI runs it)"; \
	fi

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -m "not slow"

bench-full:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

figures:
	$(PYTHON) -m repro.experiments all

quick-figures:
	$(PYTHON) -m repro.experiments all --quick

headline:
	$(PYTHON) -m repro.experiments headline --runs 40

clean:
	rm -rf benchmarks/reports
	rm -rf .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
