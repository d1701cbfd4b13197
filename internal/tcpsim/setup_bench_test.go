package tcpsim

import (
	"testing"
	"time"
)

// BenchmarkNewPair prices run set-up in the tcpsim row of the cost
// ledger: constructing one client/server pair the way a run does, with
// a warm destination-metrics cache so the seed path is taken. An HTTP
// run builds hundreds of these, so the shared constructor's allocations
// are a committed number for both endpoints.
func BenchmarkNewPair(b *testing.B) {
	nw := blackholeNet()
	cfg := DefaultConfig()
	cfg.Metrics = NewMetricsCache()
	cfg.Metrics.Store("d", MetricsEntry{Ssthresh: 20, SRTT: 80 * time.Millisecond, RTTVar: 10 * time.Millisecond})
	b.Run("tcp", func(b *testing.B) {
		b.ReportAllocs()
		withoutInvariants(func() {
			for i := 0; i < b.N; i++ {
				nw.held = nw.held[:0]
				nw.NewConnPair(cfg, cfg, "b", "d")
			}
		})
	})
	b.Run("quic", func(b *testing.B) {
		b.ReportAllocs()
		withoutInvariants(func() {
			for i := 0; i < b.N; i++ {
				nw.qconns = nw.qconns[:0]
				nw.NewQUICPair(cfg, cfg, "b", "d")
			}
		})
	})
}
