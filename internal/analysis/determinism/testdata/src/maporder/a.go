// Package maporder exercises order-sensitive map-iteration bodies
// (flagged) against the commutative and collect-then-sort shapes that
// must stay quiet.
package maporder

import (
	"fmt"
	"sort"
	"strings"
)

func emit(m map[string]int) {
	for k := range m {
		fmt.Println(k) // want `fmt\.Println inside range over map`
	}
}

func accumulate(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want `append to out inside range over map`
	}
	return out
}

// collectThenSort is the accepted idiom: the sort below re-establishes
// a deterministic order, so the append is not a finding.
func collectThenSort(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

type loop struct{}

func (loop) After(d int, fn func()) {}

func schedule(l loop, m map[string]func()) {
	for _, fn := range m {
		l.After(1, fn) // want `schedules an event inside range over map`
	}
}

func send(m map[string]int, ch chan int) {
	for _, v := range m {
		ch <- v // want `send on ch inside range over map`
	}
}

// keyedScatter writes a distinct bucket per key: buckets commute, no
// finding.
func keyedScatter(src map[int]float64, dst map[int][]float64) {
	for k, v := range src {
		dst[k] = append(dst[k], v)
	}
}

// count is pure commutative aggregation.
func count(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// localSink: a writer created inside the loop body is per-iteration
// state, not shared output.
func localSink(m map[string]string) map[string]string {
	out := map[string]string{}
	for k, v := range m {
		var b strings.Builder
		b.WriteString(v)
		out[k] = b.String()
	}
	return out
}

// sharedSink: writing to a builder that outlives the loop is emission
// in random order.
func sharedSink(m map[string]string) string {
	var b strings.Builder
	for _, v := range m {
		b.WriteString(v) // want `b\.WriteString inside range over map`
	}
	return b.String()
}

type pair struct{ a, b []string }

// sortedSibling sorts a different field from the one it appends to:
// only a sort of the appended expression itself restores its order.
func sortedSibling(m map[string]int, s *pair) {
	for k := range m {
		s.a = append(s.a, k) // want `append to s\.a inside range over map`
	}
	sort.Strings(s.b)
}

// sortedBefore sorts before the loop, which orders nothing the loop
// appends afterwards.
func sortedBefore(m map[string]int, keys []string) []string {
	sort.Strings(keys)
	for k := range m {
		keys = append(keys, k) // want `append to keys inside range over map`
	}
	return keys
}
