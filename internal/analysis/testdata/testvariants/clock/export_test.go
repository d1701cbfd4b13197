package clock

import "fmt"

// Dump exists only in the test variant: the external test package
// reaches it through its own import map.
func Dump(s string) { fmt.Println(s) }
