# Development entry points. CI (.github/workflows/ci.yml) runs the same
# commands; keep the two in sync.

GO ?= go

.PHONY: all build test race lint fmt fixture-check loc

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...
	$(GO) test -race -count=2 ./internal/liveproxy/ ./internal/validate/
	$(GO) test -race -count=5 -run 'TestOrderedFanOut|TestDeclinedShardsRespectParallelism|TestSweep' ./internal/experiment/

# Static enforcement of the simulator's determinism and seeded-RNG
# invariants, and of lost writes through := shadowing (TESTING.md,
# "Layer 0"): one pass over the module, _test.go files included.
lint:
	$(GO) run ./cmd/simlint ./...

# The seeded fixture must keep tripping every rule in the suite.
fixture-check:
	@if $(GO) run ./cmd/simlint -dir internal/analysis/testdata/fixture; then \
		echo "fixture produced no findings -- an analyzer has gone silent"; exit 1; \
	else \
		echo "fixture canary OK (simlint exits nonzero on seeded violations)"; \
	fi

fmt:
	gofmt -w .

# Non-test lines of Go per package, smallest first (ROADMAP aim 2: "a
# tracked number"). CI prints it; nothing gates on it.
loc:
	@git ls-files 'internal/**.go' 'cmd/**.go' | grep -v _test.go | \
		xargs wc -l | awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' | sort -n
