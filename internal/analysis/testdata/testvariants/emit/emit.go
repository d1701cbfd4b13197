// Package emit prints: every call to Line is an output sink, which a
// caller in another package learns only through a fact.
package emit

import "fmt"

// Line prints s.
func Line(s string) { fmt.Println(s) }
