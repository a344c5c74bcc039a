# Convenience targets for the texture-cache reproduction.

PYTHON ?= python
SCALE ?= 0.25

.PHONY: install test bench examples gallery clean

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	REPRO_SCALE=$(SCALE) $(PYTHON) -m pytest benchmarks/ --benchmark-only

# Each run writes its images into a fresh directory, removed once every
# example has passed; the package must be importable from there.
examples:
	dir=$$(mktemp -d) && cd "$$dir" && for ex in quickstart \
		layout_explorer flight_flyover tile_tuning parallel_generators \
		animation render_to_texture; do \
		$(PYTHON) $(CURDIR)/examples/$$ex.py || exit 1; done && \
		rm -rf "$$dir"

gallery:
	$(PYTHON) examples/render_gallery.py gallery $(SCALE)

clean:
	rm -rf gallery benchmarks/results .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
