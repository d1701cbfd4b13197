// The importing side of the cross-package taint test: every finding
// here depends on a fact exported while tainthelper was analyzed.
package taintx

import (
	"fmt"

	"tainthelper"
)

// Dump reaches a sink through an imported function.
func Dump(m map[string]int) {
	for k := range m {
		tainthelper.Emit(k) // want `call to Emit \(fmt\.Println\) inside range over map reaches an output sink`
	}
}

// UsePick receives map-ordered data from an imported function.
func UsePick(m map[string]int) {
	k := tainthelper.Pick(m)
	fmt.Println(k) // want `fmt\.Println receives a map-ordered value`
}
