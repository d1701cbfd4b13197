// Goldens for the interprocedural half of the determinism analyzer:
// order carried through calls, results, folds, select and sync.Map.
// The direct effects inside a plain map range are the maporder
// goldens'.
package taint

import (
	"fmt"
	"sort"
	"sync"
)

// emit acquires a SinkFact: it prints directly.
func emit(s string) { fmt.Println(s) }

// relay acquires a SinkFact transitively through emit.
func relay(s string) { emit(s) }

// Dump leaks map order through a call — invisible to a local check.
func Dump(m map[string]int) {
	for k := range m {
		emit(k) // want `call to emit \(fmt\.Println\) inside range over map reaches an output sink`
	}
}

// DumpDeep leaks through two hops.
func DumpDeep(m map[string]int) {
	for k := range m {
		relay(k) // want `call to relay \(call to emit \(fmt\.Println\)\) inside range over map reaches an output sink`
	}
}

// Sorted is the sanctioned idiom: collect, sort, then emit.
func Sorted(m map[string]int) {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		emit(k)
	}
}

// First returns the first key map iteration yields — an OrderedFact
// source with no diagnostic of its own.
func First(m map[string]int) string {
	for k := range m {
		return k
	}
	return ""
}

// UseFirst lets the map-ordered value reach output outside any loop.
func UseFirst(m map[string]int) {
	k := First(m)
	fmt.Println(k) // want `fmt\.Println receives a map-ordered value`
}

// Keys accumulates under a map range without sorting, so its result
// carries iteration order — and the append is itself a finding.
func Keys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k) // want `append to out inside range over map`
	}
	return out
}

// PrintAll ranges over the map-ordered result: the region's direct
// effects count as in a map range.
func PrintAll(m map[string]int) {
	for _, k := range Keys(m) {
		fmt.Println(k) // want `fmt\.Println inside range over map-ordered value`
	}
}

// PrintSorted cleanses the same result before iterating.
func PrintSorted(m map[string]int) {
	ks := Keys(m)
	sort.Strings(ks)
	for _, k := range ks {
		fmt.Println(k)
	}
}

// Moments stands in for a float accumulator whose fold order changes
// the bits.
type Moments struct{ n float64 }

// Merge folds another accumulator in.
func (m *Moments) Merge(o Moments) { m.n += o.n }

// Fold merges shards in map order — order-sensitive even though no
// output happens inside the loop.
func Fold(agg *Moments, shards map[string]Moments) {
	for _, s := range shards {
		agg.Merge(s) // want `agg\.Merge inside range over map folds accumulator state in nondeterministic order`
	}
}

// Race lets the runtime pick a winner.
func Race(a, b chan int) int {
	select { // want `select with 2 cases resolves nondeterministically`
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}

// DumpSync iterates a sync.Map, whose traversal order is unspecified.
func DumpSync(m *sync.Map) {
	m.Range(func(k, v any) bool {
		fmt.Println(k) // want `fmt\.Println inside sync\.Map\.Range callback`
		return true
	})
}

// SendAll forwards map-ordered values on an outer channel — a send is
// an observable effect in every region kind.
func SendAll(m map[string]int, ch chan string) {
	for _, k := range Keys(m) {
		ch <- k // want `send on ch inside range over map-ordered value`
	}
}

// Loop stands in for the simulator's event loop.
type Loop struct{ pending int }

// After queues fn to run d ticks from now.
func (l *Loop) After(d int, fn func()) { l.pending++ }

// arm acquires a SinkFact without any output: an event queued on a loop
// that outlives the call shifts every later tiebreak.
func arm(l *Loop, fn func()) { l.After(1, fn) }

// armLocal queues on a loop of its own, which nothing outside sees.
func armLocal(fn func()) {
	var l Loop
	l.After(1, fn)
}

// ArmAll queues one event per entry, in map order.
func ArmAll(l *Loop, m map[string]func()) {
	for _, fn := range m {
		arm(l, fn) // want `call to arm \(l\.After schedules an event\) inside range over map reaches an output sink`
		armLocal(fn)
	}
}

// Handler stands in for sim.Handler, the callback an event holds.
type Handler interface{ Call() }

// Func adapts a function to a Handler.
type Func func()

// Call runs f.
func (f Func) Call() { f() }

// AtCall queues h to run at tick at, as sim.Loop.AtCall does.
func (l *Loop) AtCall(at int, h Handler) { l.pending++ }

// AfterCall queues h to run d ticks from now, as sim.Loop.AfterCall does.
func (l *Loop) AfterCall(d int, h Handler) { l.pending++ }

// ArmHandlers queues one Handler per entry, in map order, through the
// loop's own scheduling names.
func ArmHandlers(l *Loop, m map[int]Handler) {
	for at, h := range m {
		l.AtCall(at, h)   // want `l\.AtCall schedules an event inside range over map`
		l.AfterCall(1, h) // want `l\.AfterCall schedules an event inside range over map`
	}
}

// every acquires a SinkFact through AfterCall, as sim.Loop.After does.
func every(l *Loop, fn func()) { l.AfterCall(1, Func(fn)) }

// Watch is a test's poll loop: an event that ranges over a map and
// re-arms itself. The map order stays inside the closure, so the
// closure value handed to every carries none.
func Watch(l *Loop, m map[string]int) {
	var watch func()
	watch = func() {
		for k, n := range m {
			if n < 0 {
				panic(k)
			}
		}
		every(l, watch)
	}
	every(l, watch)
}
