package flatesize_test

import (
	"testing"

	"spdier/internal/sim"
	"spdier/internal/spdy"
	"spdier/internal/spdy/flatesize"
	"spdier/internal/webpage"
)

// sizeTable1 sizes the Table 1 session at seed as the simulator does,
// one SPDY connection's requests and its replies, and returns how many
// objects it has.
func sizeTable1(seed uint64) int {
	kinds := map[webpage.Kind]string{webpage.KindHTML: "text/html; charset=utf-8", webpage.KindJS: "text/javascript", webpage.KindCSS: "text/css", webpage.KindImg: "image/jpeg"}
	base := sim.NewRNG(seed)
	var objs []*webpage.Object
	for _, spec := range webpage.Table1() {
		objs = append(objs, webpage.Generate(spec, base.Fork(uint64(spec.Index))).Objects...)
	}
	requests, replies := spdy.NewSizeOracle(), spdy.NewSizeOracle()
	for _, obj := range objs {
		requests.RequestSize("GET", "http", obj.Domain, obj.Path, "Mozilla/5.0 (Windows NT 6.1) Chrome/23.0")
		replies.ResponseSize("200 OK", kinds[obj.Kind], int64(obj.Size))
	}
	return len(objs)
}

// TestFinderMatchesWalkOnTable1 sizes the Table 1 sessions at seeds 1–3
// and holds every match findMatch finds to the walk's.
func TestFinderMatchesWalkOnTable1(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		stop := flatesize.CheckEveryQuery(t)
		objs := sizeTable1(seed)
		if queries, _ := stop(); queries < objs {
			t.Fatalf("seed %d: %d queries over %d objects", seed, queries, objs)
		}
	}
}

// TestDynamicFloorUnderDynamicSize sizes the same sessions and holds
// every block's dynamic floor to its dynamic size, built for the blocks
// the floor settles too.
func TestDynamicFloorUnderDynamicSize(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		stop := flatesize.CheckEveryFloor(t)
		objs := sizeTable1(seed)
		if blocks := stop(); blocks < 2*objs {
			t.Fatalf("seed %d: %d blocks checked over %d objects", seed, blocks, objs)
		}
	}
}
