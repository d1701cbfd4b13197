package experiment

import (
	"reflect"
	"testing"
	"time"

	"spdier/internal/browser"
	"spdier/internal/netem"
	"spdier/internal/webpage"
)

// optionPerturbations holds, per Options field, a change to the zero
// Options that should give it a key of its own.
var optionPerturbations = map[string]func(*Options){
	"Network":               func(o *Options) { o.Network = NetworkKind("perturbed") },
	"Mode":                  func(o *Options) { o.Mode = browser.Mode("perturbed") },
	"Seed":                  func(o *Options) { o.Seed = 987654321 },
	"Sites":                 func(o *Options) { o.Sites = []webpage.SiteSpec{{Index: 99, Category: "perturbed"}} },
	"Pages":                 func(o *Options) { o.Pages = []*webpage.Page{{}} },
	"ThinkTime":             func(o *Options) { o.ThinkTime = time.Nanosecond },
	"PingKeepalive":         func(o *Options) { o.PingKeepalive = true },
	"PingInterval":          func(o *Options) { o.PingInterval = time.Nanosecond },
	"PingBytes":             func(o *Options) { o.PingBytes = 7 },
	"SlowStartAfterIdleOff": func(o *Options) { o.SlowStartAfterIdleOff = true },
	"ResetRTTAfterIdle":     func(o *Options) { o.ResetRTTAfterIdle = true },
	"CC":                    func(o *Options) { o.CC = "perturbed" },
	"NoMetricsCache":        func(o *Options) { o.NoMetricsCache = true },
	"SPDYSessions":          func(o *Options) { o.SPDYSessions = 9 },
	"SPDYLateBinding":       func(o *Options) { o.SPDYLateBinding = true },
	"Pipelining":            func(o *Options) { o.Pipelining = true },
	"NoBeacons":             func(o *Options) { o.NoBeacons = true },
	"FastOrigin":            func(o *Options) { o.FastOrigin = true },
	"DisableUndo":           func(o *Options) { o.DisableUndo = true },
	"TLP":                   func(o *Options) { o.TLP = true },
	"RACK":                  func(o *Options) { o.RACK = true },
	"FRTO":                  func(o *Options) { o.FRTO = true },
	"H2EqualFraming":        func(o *Options) { o.H2EqualFraming = true },
	"QUICNo0RTT":            func(o *Options) { o.QUICNo0RTT = true },
	"Impair":                func(o *Options) { o.Impair = netem.Impairments{ReorderProb: 0.5} },
	"ExtraLatency":          func(o *Options) { o.ExtraLatency = time.Nanosecond },
	// 1 collides with 0 by design (both mean "unscaled"), so the
	// separating perturbation must be a real scale.
	"PromotionScale": func(o *Options) { o.PromotionScale = 2 },
	"NoLinkLoss":     func(o *Options) { o.NoLinkLoss = true },
	"SampleEvery":    func(o *Options) { o.SampleEvery = time.Nanosecond },
	"ProbeStride":    func(o *Options) { o.ProbeStride = 1 },
	"LeanProbe":      func(o *Options) { o.LeanProbe = true },
}

// TestCacheKeySeparatesEveryField: for every Options field there must be
// a perturbation under which the cache key changes — otherwise two
// different configurations would replay each other's Results. The
// perturbation table is keyed by field name and the test fails on any
// Options field without an entry, so adding a field forces a decision
// here.
func TestCacheKeySeparatesEveryField(t *testing.T) {
	baseKey, ok := CacheKey(Options{})
	if !ok {
		t.Fatal("zero Options must be memoizable")
	}

	typ := reflect.TypeOf(Options{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		fn, covered := optionPerturbations[name]
		if !covered {
			t.Errorf("Options.%s has no perturbation here: decide how it separates cache keys", name)
			continue
		}
		var o Options
		fn(&o)
		key, ok := CacheKey(o)
		if name == "Pages" {
			if ok {
				t.Error("Options.Pages: page-configured runs have no canonical key and must never be memoized")
			}
			continue
		}
		if !ok {
			t.Errorf("Options.%s: perturbed Options must still be memoizable", name)
			continue
		}
		if key == baseKey {
			t.Errorf("Options.%s: perturbation did not change the cache key — two different configurations would share one cache entry", name)
		}
	}

	// The deliberate canonicalizations must survive: a zero and a unit
	// PromotionScale run the same simulation and must share a key.
	unit := Options{PromotionScale: 1}
	if key, ok := CacheKey(unit); !ok || key != baseKey {
		t.Errorf("PromotionScale=1 must share the unscaled key (got ok=%t, equal=%t)", ok, key == baseKey)
	}
}

// TestCacheKeyPartition pins which Options share a cache key: two rows
// get the same key exactly when they carry the same class, and class ""
// marks a row with no key at all. The classes were recorded under the
// first, hand-written key; any encoding must induce the same partition
// of this table, whatever strings it produces.
func TestCacheKeyPartition(t *testing.T) {
	type row struct {
		name, class string
		opts        Options
	}
	disabled := netem.Impairments{GEBadToGood: 0.3, ReorderDelay: 5 * time.Millisecond}
	rows := []row{
		{"zero", "default", Options{}},
		{"explicit defaults", "default", Options{
			Mode: browser.ModeHTTP, Network: Net3G, Sites: webpage.Table1(),
			ThinkTime: 60 * time.Second, PingInterval: 2 * time.Second, PingBytes: 600,
			CC: "cubic", SPDYSessions: 1, SampleEvery: 500 * time.Millisecond,
			ProbeStride: DefaultProbeStride(),
		}},
		{"unit promotion scale", "default", Options{PromotionScale: 1}},
		{"disabled non-zero impairments", "default", Options{Impair: disabled}},
		{"unit scale and disabled impairments", "default", Options{PromotionScale: 1, Impair: disabled}},
		{"scale 2 with disabled impairments", "PromotionScale", Options{PromotionScale: 2, Impair: disabled}},
		{"scale 0.5", "scale 0.5", Options{PromotionScale: 0.5}},
		{"reordering with a delay", "reorder+delay", Options{Impair: netem.Impairments{ReorderProb: 0.5, ReorderDelay: 5 * time.Millisecond}}},
		// The bench conditions.
		{"bench http/3g", "default", Options{Mode: browser.ModeHTTP, Network: Net3G}},
		{"bench http/wifi", "http/wifi", Options{Mode: browser.ModeHTTP, Network: NetWiFi}},
		{"bench spdy/3g", "spdy/3g", Options{Mode: browser.ModeSPDY, Network: Net3G}},
		{"bench h2/lte", "h2/lte", Options{Mode: browser.ModeH2, Network: NetLTE}},
		{"bench quic/3g", "quic/3g", Options{Mode: browser.ModeQUIC, Network: Net3G}},
		{"bench spdy/3g+tlp+rack+frto", "spdy/3g+arms", Options{Mode: browser.ModeSPDY, Network: Net3G, TLP: true, RACK: true, FRTO: true}},
		{"bench spdy/3g seed 1", "spdy/3g seed 1", Options{Mode: browser.ModeSPDY, Network: Net3G, Seed: 1}},
	}
	typ := reflect.TypeOf(Options{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		var o Options
		optionPerturbations[name](&o)
		class := name
		if name == "Pages" {
			class = ""
		}
		rows = append(rows, row{"perturbed " + name, class, o})
	}

	keys := make([]string, len(rows))
	for i, r := range rows {
		k, ok := CacheKey(r.opts)
		if ok != (r.class != "") {
			t.Errorf("%s: ok = %t, want %t", r.name, ok, r.class != "")
		}
		keys[i] = k
	}
	for i, a := range rows {
		for j := i + 1; j < len(rows); j++ {
			b := rows[j]
			if a.class == "" || b.class == "" {
				continue
			}
			if same := keys[i] == keys[j]; same != (a.class == b.class) {
				t.Errorf("%s vs %s: same key = %t, want %t", a.name, b.name, same, a.class == b.class)
			}
		}
	}
}

// TestCacheKeyIsInjective: strings are free text, so one holding the
// delimiters of a positional encoding must not spell another Options'
// key. A one-site list whose category swallows a second site's fields
// once read exactly like the two-site list.
func TestCacheKeyIsInjective(t *testing.T) {
	one := Options{Sites: []webpage.SiteSpec{
		{Index: 1, Category: "news,1,1,1,1,1,1][2,blog", TotalObjs: 1, AvgSizeKB: 1, Domains: 1, TextObjs: 1, JSCSS: 1, ImgsOther: 1},
	}}
	two := Options{Sites: []webpage.SiteSpec{
		{Index: 1, Category: "news", TotalObjs: 1, AvgSizeKB: 1, Domains: 1, TextObjs: 1, JSCSS: 1, ImgsOther: 1},
		{Index: 2, Category: "blog", TotalObjs: 1, AvgSizeKB: 1, Domains: 1, TextObjs: 1, JSCSS: 1, ImgsOther: 1},
	}}
	a, okA := CacheKey(one)
	b, okB := CacheKey(two)
	if !okA || !okB {
		t.Fatal("site-configured Options must be memoizable")
	}
	if a == b {
		t.Errorf("one site and two sites share a key: %s", a)
	}
}

// TestCacheKeyAllocations: the key is computed once per run, so it must
// not cost more than the defaulted Options it encodes.
func TestCacheKeyAllocations(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { CacheKey(Options{}) }); n > 4 {
		t.Errorf("CacheKey(Options{}) makes %v allocations, want <= 4", n)
	}
}
