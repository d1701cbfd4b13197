package experiment

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"spdier/internal/browser"
	"spdier/internal/netem"
	"spdier/internal/tcpsim"
)

// TestSackOptionDigests pins every pure ACK the TCP endpoints of a
// spdy/3g and an h2/lte session emit — instant, endpoint, cumulative
// point, window, DSACK flag and SACK blocks, as the tcpsim debug log
// prints them — as a count and a hash per seed, as they are and under
// bursty loss. These are the arms whose one long flight meets 3G and
// LTE loss, so their receivers' out-of-order buffers are the deepest any
// run builds; the hash moves if one block of one option does.
func TestSackOptionDigests(t *testing.T) {
	want := map[string]string{
		"spdy/3g/1":         "acks=12171 sack-bearing=460 fnv=882caa1b301d90b3",
		"spdy/3g/2":         "acks=12163 sack-bearing=467 fnv=d8d735de70fe63e9",
		"spdy/3g/3":         "acks=12083 sack-bearing=718 fnv=debebc50b9968926",
		"h2/lte/1":          "acks=11906 sack-bearing=472 fnv=ed4b3f5c1fd2ca29",
		"h2/lte/2":          "acks=11879 sack-bearing=685 fnv=a236b4c921d4cc92",
		"h2/lte/3":          "acks=11746 sack-bearing=830 fnv=c51bf6a599082f24",
		"spdy/3g/ge-loss/1": "acks=13436 sack-bearing=2496 fnv=f471f94edc8d22ef",
		"spdy/3g/ge-loss/2": "acks=13338 sack-bearing=2315 fnv=fc7eabb927763320",
		"spdy/3g/ge-loss/3": "acks=13142 sack-bearing=2550 fnv=40de8ea0a3d060ea",
		"h2/lte/ge-loss/1":  "acks=12733 sack-bearing=2425 fnv=7718f4566627d1b1",
		"h2/lte/ge-loss/2":  "acks=12404 sack-bearing=1900 fnv=0eba6c4e1c17fbca",
		"h2/lte/ge-loss/3":  "acks=12229 sack-bearing=2143 fnv=06836b230d9a0603",
	}
	// Without impairments an option holds one block, now and then two;
	// bursty loss makes holes enough for all four.
	geLoss := netem.Impairments{GEGoodToBad: 0.005, GEBadToGood: 0.3, GELossBad: 0.5}
	defer tcpsim.SetDebugLog(nil)
	for _, c := range []struct {
		name string
		opts Options
	}{
		{"spdy/3g", Options{Mode: browser.ModeSPDY, Network: Net3G}},
		{"h2/lte", Options{Mode: browser.ModeH2, Network: NetLTE}},
		{"spdy/3g/ge-loss", Options{Mode: browser.ModeSPDY, Network: Net3G, Impair: geLoss}},
		{"h2/lte/ge-loss", Options{Mode: browser.ModeH2, Network: NetLTE, Impair: geLoss}},
	} {
		for seed := uint64(1); seed <= 3; seed++ {
			h := fnv.New64a()
			acks, sacks := 0, 0
			tcpsim.SetDebugLog(func(s string) {
				if !strings.Contains(s, " sendAck ") {
					return
				}
				acks++
				if !strings.HasSuffix(s, "sack=[]") {
					sacks++
				}
				h.Write([]byte(s))
				h.Write([]byte{'\n'})
			})
			opts := c.opts
			opts.Seed = seed
			Run(opts)
			key := fmt.Sprintf("%s/%d", c.name, seed)
			if got := fmt.Sprintf("acks=%d sack-bearing=%d fnv=%016x", acks, sacks, h.Sum64()); got != want[key] {
				t.Errorf("%s: %s, want %s", key, got, want[key])
			}
		}
	}
}
