package tcpsim

import "time"

// MetricsCache models the Linux per-destination TCP metrics cache
// (ip tcp_metrics): ssthresh and RTT statistics observed on one
// connection are reused to seed the next connection to the same
// destination. Section 6.2.4 of the paper shows that disabling this
// cache (net.ipv4.tcp_no_metrics_save=1) improved page load times by
// ~35% at the median, because stale pessimistic metrics from an earlier
// spurious-timeout episode poison fresh connections.
//
// The cache is shared by all connections of one simulated host; pass nil
// to a Conn to disable caching.
type MetricsCache struct {
	entries map[string]MetricsEntry

	// Hits/Stores are exposed for tests and ablation reporting.
	Hits   int
	Stores int
}

// MetricsEntry is the cached state for one destination.
type MetricsEntry struct {
	Ssthresh float64
	SRTT     time.Duration
	RTTVar   time.Duration
}

// NewMetricsCache returns an empty cache.
func NewMetricsCache() *MetricsCache {
	return &MetricsCache{entries: make(map[string]MetricsEntry)}
}

// Lookup returns the cached entry for dest and whether there is one.
func (m *MetricsCache) Lookup(dest string) (MetricsEntry, bool) {
	if m == nil {
		return MetricsEntry{}, false
	}
	e, ok := m.entries[dest]
	if ok {
		m.Hits++
	}
	return e, ok
}

// Store records metrics for dest, merging with any existing entry the
// way Linux does: ssthresh is the maximum of old and new only when the
// connection ends in good standing, otherwise overwritten; we keep the
// simple overwrite model, which is what produces the pathology.
func (m *MetricsCache) Store(dest string, e MetricsEntry) {
	if m == nil {
		return
	}
	m.Stores++
	m.entries[dest] = e
}

// Len reports the number of cached destinations.
func (m *MetricsCache) Len() int {
	if m == nil {
		return 0
	}
	return len(m.entries)
}
