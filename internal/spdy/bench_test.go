package spdy

import (
	"runtime"
	"testing"
)

// BenchmarkSizeOracle prices one direction of a full Table 1 session
// (seed 1, page by page in request order: the blocks one SPDY connection
// compresses in a run) per iteration, on a fresh oracle as
// browser.openMux and proxy.zlibHead make one per connection, and
// reports the cost per frame, the bytes allocated per session, most of
// them the oracle's zlib context, and two counts of work that no clock
// moves: candidates/frame, the earlier positions whose bytes the match
// finder compared with another's, and codes/frame, the blocks whose
// Huffman codes the sizer built because their floor could not settle
// them.
func BenchmarkSizeOracle(b *testing.B) {
	objs := table1Session(1)
	b.Run("request", func(b *testing.B) {
		benchSession(b, len(objs), func() *SizeOracle {
			o := NewSizeOracle()
			for _, obj := range objs {
				sinkSize += o.RequestSize("GET", "http", obj.Domain, obj.Path, chromeUA)
			}
			return o
		})
	})
	b.Run("response", func(b *testing.B) {
		benchSession(b, len(objs), func() *SizeOracle {
			o := NewSizeOracle()
			for _, obj := range objs {
				sinkSize += o.ResponseSize("200 OK", contentType(obj.Kind), int64(obj.Size))
			}
			return o
		})
	})
}

var sinkSize int

// benchSession runs session, which returns the oracle it priced on, b.N
// times.
func benchSession(b *testing.B, frames int, session func() *SizeOracle) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var o *SizeOracle
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o = session()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	total := float64(b.N * frames)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/frame")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/total, "allocs/frame")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/1024/float64(b.N), "KiB/session")
	b.ReportMetric(float64(o.z.Candidates())/float64(frames), "candidates/frame")
	b.ReportMetric(float64(o.z.Codes())/float64(frames), "codes/frame")
}
