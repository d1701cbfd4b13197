// Suppression golden: //lint:allow determinism silences a finding on the
// next line; an unsuppressed sibling still fires.
package taintallow

import "fmt"

func emit(s string) { fmt.Println(s) }

// DumpAllowed documents why the order genuinely cannot matter.
func DumpAllowed(m map[string]int) {
	for k := range m {
		//lint:allow determinism debug-only dump, never parsed or diffed
		emit(k)
	}
}

// DumpBare has no such justification.
func DumpBare(m map[string]int) {
	for k := range m {
		emit(k) // want `call to emit \(fmt\.Println\) inside range over map reaches an output sink`
	}
}
