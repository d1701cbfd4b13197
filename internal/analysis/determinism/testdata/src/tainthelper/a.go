// The exported side of the cross-package taint test: Emit sinks, and
// Pick returns map-ordered data. Both facts must survive the package
// boundary for taintx's goldens to fire.
package tainthelper

import "fmt"

// Emit prints its argument.
func Emit(s string) { fmt.Println(s) }

// Pick returns whichever key map iteration yields first.
func Pick(m map[string]int) string {
	for k := range m {
		return k
	}
	return ""
}
