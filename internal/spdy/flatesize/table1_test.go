package flatesize_test

import (
	"testing"

	"spdier/internal/sim"
	"spdier/internal/spdy"
	"spdier/internal/spdy/flatesize"
	"spdier/internal/webpage"
)

// TestFinderMatchesWalkOnTable1 sizes the Table 1 sessions at seeds 1–3
// as the simulator does, one SPDY connection's requests and its replies,
// and holds every match findMatch finds to the walk's.
func TestFinderMatchesWalkOnTable1(t *testing.T) {
	kinds := map[webpage.Kind]string{webpage.KindHTML: "text/html; charset=utf-8", webpage.KindJS: "text/javascript", webpage.KindCSS: "text/css", webpage.KindImg: "image/jpeg"}
	for seed := uint64(1); seed <= 3; seed++ {
		base := sim.NewRNG(seed)
		var objs []*webpage.Object
		for _, spec := range webpage.Table1() {
			objs = append(objs, webpage.Generate(spec, base.Fork(uint64(spec.Index))).Objects...)
		}
		stop := flatesize.CheckEveryQuery(t)
		requests, replies := spdy.NewSizeOracle(), spdy.NewSizeOracle()
		for _, obj := range objs {
			requests.RequestSize("GET", "http", obj.Domain, obj.Path, "Mozilla/5.0 (Windows NT 6.1) Chrome/23.0")
			replies.ResponseSize("200 OK", kinds[obj.Kind], int64(obj.Size))
		}
		queries, _ := stop()
		if queries < len(objs) {
			t.Fatalf("seed %d: %d queries over %d objects", seed, queries, len(objs))
		}
	}
}
