package spdy

import (
	"runtime"
	"testing"
)

// BenchmarkSizeOracle prices one direction of a full Table 1 session
// (seed 1, page by page in request order: the blocks one SPDY connection
// compresses in a run) per iteration, on a fresh oracle as
// browser.openMux and proxy.zlibHead make one per connection, and
// reports the cost per frame and the bytes allocated per session, most
// of them the oracle's zlib context.
func BenchmarkSizeOracle(b *testing.B) {
	objs := table1Session(1)
	b.Run("request", func(b *testing.B) {
		benchSession(b, len(objs), func() {
			o := NewSizeOracle()
			for _, obj := range objs {
				sinkSize += o.RequestSize("GET", "http", obj.Domain, obj.Path, chromeUA)
			}
		})
	})
	b.Run("response", func(b *testing.B) {
		benchSession(b, len(objs), func() {
			o := NewSizeOracle()
			for _, obj := range objs {
				sinkSize += o.ResponseSize("200 OK", contentType(obj.Kind), int64(obj.Size))
			}
		})
	})
}

var sinkSize int

func benchSession(b *testing.B, frames int, session func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		session()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	total := float64(b.N * frames)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/frame")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/total, "allocs/frame")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/1024/float64(b.N), "KiB/session")
}
