// Negative golden: effects confined to function-local storage are not
// sinks, and sorted accumulation stays clean end to end.
package taintlocal

import (
	"sort"
	"strings"
)

// Render writes only a local builder inside the map range; the caller
// observes a single string whose construction order it cannot see
// before the sort... and here the keys are sorted first anyway.
func Render(m map[string]int) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
	}
	return b.String()
}

// Count is order-free arithmetic under a map range.
func Count(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}
