// Package fixture is a seeded violation corpus: exactly one finding per
// rule — four determinism sources and one shadow. The simlint
// acceptance test (and CI) runs the full suite over this directory and
// requires that count per analyzer — if a rule regresses into silence,
// that test fails before any real violation can slip through unnoticed.
package fixture

import (
	"fmt"
	"math/rand"
	"time"
)

func violations(m map[string]int) (time.Time, error) {
	start := time.Now() // determinism: wall clock

	n := rand.Intn(6) // determinism: global rand

	for k := range m { // determinism: iteration order leaks into output
		fmt.Println(k, n)
	}

	var err error
	if n > 3 {
		err := fmt.Errorf("n too large: %d", n) // shadow: lost write
		_ = err
	}
	return start, err
}

// emitKey prints — so it carries a SinkFact — without being one of the
// output calls recognized locally.
func emitKey(k string) { fmt.Println(k) }

// leakOrder reaches that sink once per map entry: the determinism
// interprocedural finding.
func leakOrder(m map[string]bool) {
	for k := range m {
		emitKey(k)
	}
}
