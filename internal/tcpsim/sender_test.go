package tcpsim

import (
	"testing"
	"time"

	"spdier/internal/sim"
)

// senderUnderTest is one endpoint of either transport, seen through what
// the shared sender core needs from a test: its sender, a way to write,
// a way to close, and whether everything written has been acknowledged.
type senderUnderTest struct {
	*sender
	write   func(n int)
	close   func()
	drained func() bool
}

// drain runs the loop until the endpoint has nothing queued or in flight,
// a millisecond at a time so that the loop's clock stays close to the
// last transmission (RunUntilIdle would sit out the handshake timers).
func (s senderUnderTest) drain(t *testing.T, w *testWorld) {
	t.Helper()
	for deadline := w.loop.Now().Add(time.Minute); !s.drained(); {
		if w.loop.Now() > deadline {
			t.Fatal("transfer did not drain")
		}
		w.loop.Run(w.loop.Now().Add(time.Millisecond))
	}
}

// senderTransports opens an endpoint pair of each transport on w and
// returns the writing side. cfg is the writer's Config; the peer runs
// the defaults.
var senderTransports = []struct {
	name string
	open func(w *testWorld, cfg Config, id, dest string) senderUnderTest
}{
	{"tcp", func(w *testWorld, cfg Config, id, dest string) senderUnderTest {
		client, server := w.net.NewConnPair(DefaultConfig(), cfg, id, dest)
		client.OnDeliver(func(int) {})
		client.Connect()
		return senderUnderTest{&server.sender, server.Write, server.Close,
			func() bool { return server.InFlightBytes() == 0 && server.BufferedBytes() == 0 }}
	}},
	{"quic", func(w *testWorld, cfg Config, id, dest string) senderUnderTest {
		client, server := w.net.NewQUICPair(DefaultConfig(), cfg, id, dest)
		client.Connect()
		return senderUnderTest{&server.sender, func(n int) { server.WriteStream(1, n) }, server.Close,
			func() bool { return server.InFlightBytes() == 0 && server.BufferedBytes() == 0 }}
	}},
}

// resetSpy is Reno that counts Reset calls, so a test can tell an idle
// restart reached the controller.
type resetSpy struct {
	Reno
	resets *int
}

func (r *resetSpy) Reset() { *r.resets++ }

// TestSenderIdleRestart drives the one idle-restart policy through both
// endpoints: what it does to the window, the controller and the
// estimator, what it reports, and the idle period that arms it — longer
// than the base RTO, to the nanosecond.
func TestSenderIdleRestart(t *testing.T) {
	cases := []struct {
		name      string
		set       func(*Config)
		overBase  time.Duration // idle period, relative to the base RTO
		restart   bool          // cwnd back to the initial window, cc.Reset, EvIdleRestart
		rttResets bool          // estimate discarded, EvRTTReset
	}{
		{"idle-at-base-rto", func(*Config) {}, 0, false, false},
		{"idle-past-base-rto", func(*Config) {}, 1, true, false},
		{"long-idle", func(*Config) {}, 10 * time.Second, true, false},
		{"rtt-reset", func(c *Config) { c.ResetRTTAfterIdle = true }, 1, true, true},
		{"rtt-reset-alone", func(c *Config) { c.SlowStartAfterIdle = false; c.ResetRTTAfterIdle = true }, 1, false, true},
		{"ssai-off", func(c *Config) { c.SlowStartAfterIdle = false }, 10 * time.Second, false, false},
		{"no-idle-demotion", func(c *Config) { c.NoIdleDemotion = true; c.ResetRTTAfterIdle = true }, 10 * time.Second, false, false},
	}
	for _, tr := range senderTransports {
		for _, tc := range cases {
			t.Run(tr.name+"/"+tc.name, func(t *testing.T) {
				resets := 0
				RegisterCC("reset-spy", func() CongestionControl { return &resetSpy{resets: &resets} })
				rec := NewRecorder()
				cfg := DefaultConfig()
				cfg.CC = "reset-spy"
				cfg.Probe = rec
				tc.set(&cfg)

				w := newWorld(cleanPath(), 7)
				s := tr.open(w, cfg, "ir", "d")
				w.loop.Run(sim.Second) // handshake
				s.write(2_000_000)
				s.drain(t, w)
				grown, ssBefore, srttBefore := s.Cwnd(), s.Ssthresh(), s.SRTT()
				if grown < 50 || srttBefore <= 0 {
					t.Fatalf("precondition: cwnd %v, srtt %v after the transfer", grown, srttBefore)
				}

				at := s.lastDataSend.Add(s.rtt.base() + tc.overBase)
				if at < w.loop.Now() {
					t.Fatalf("precondition: the transfer's tail outlasted the base RTO")
				}
				w.loop.At(at, func() { s.write(10_000) })
				w.loop.RunUntilIdle()

				want := 0
				if tc.restart {
					want = 1
				}
				if s.IdleRestarts != want || rec.Count(EvIdleRestart) != want || resets != want {
					t.Errorf("IdleRestarts=%d, EvIdleRestart samples=%d, cc.Reset calls=%d; want %d each",
						s.IdleRestarts, rec.Count(EvIdleRestart), resets, want)
				}
				if tc.restart && s.Cwnd() > grown/2 {
					t.Errorf("cwnd %v after a restart from %v: not cut back to the initial window", s.Cwnd(), grown)
				}
				if !tc.restart && s.Cwnd() < grown {
					t.Errorf("cwnd collapsed without a restart: %v → %v", grown, s.Cwnd())
				}
				if s.Ssthresh() != ssBefore {
					t.Errorf("idle handling touched ssthresh: %v → %v", ssBefore, s.Ssthresh())
				}
				want = 0
				if tc.rttResets {
					want = 1
				}
				if rec.Count(EvRTTReset) != want {
					t.Errorf("EvRTTReset samples = %d, want %d", rec.Count(EvRTTReset), want)
				}
			})
		}
	}
}

// TestSenderIdleRestartResetsEstimate pins what the paper's fix does at
// the moment it fires, on both endpoints: the estimate is gone and the
// timeout is the initial multi-second one, before any new sample.
func TestSenderIdleRestartResetsEstimate(t *testing.T) {
	for _, tr := range senderTransports {
		t.Run(tr.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.ResetRTTAfterIdle = true
			w := newWorld(cleanPath(), 7)
			s := tr.open(w, cfg, "rr", "d")
			w.loop.Run(sim.Second)
			s.write(200_000)
			s.drain(t, w)
			if s.SRTT() <= 0 || s.RTO() >= cfg.InitialRTO {
				t.Fatalf("precondition: srtt %v, rto %v", s.SRTT(), s.RTO())
			}
			w.loop.At(w.loop.Now().Add(10*time.Second), func() {
				s.write(1000)
				if s.SRTT() != 0 || s.RTO() != cfg.InitialRTO {
					t.Errorf("after the reset: srtt %v, rto %v; want 0, %v", s.SRTT(), s.RTO(), cfg.InitialRTO)
				}
			})
			w.loop.RunUntilIdle()
		})
	}
}

// TestSenderMetricsCache: Close stores the RTT state always and ssthresh
// only once a loss has set one; the next pair to the same destination is
// seeded from the entry, with the conservative RTO tcp_init_metrics
// gives a seeded estimate.
func TestSenderMetricsCache(t *testing.T) {
	for _, tr := range senderTransports {
		t.Run(tr.name, func(t *testing.T) {
			w := newWorld(cleanPath(), 9)
			cache := NewMetricsCache()
			cfg := DefaultConfig()
			cfg.Metrics = cache

			s1 := tr.open(w, cfg, "m1", "device")
			w.loop.Run(sim.Second)
			s1.write(300_000)
			s1.drain(t, w)
			s1.close()
			e, ok := cache.Lookup("device")
			if cache.Stores != 1 || !ok {
				t.Fatalf("close stored %d entries", cache.Stores)
			}
			if e.SRTT != s1.rtt.srtt || e.RTTVar != s1.rtt.rttvar || e.SRTT <= 0 {
				t.Errorf("stored srtt/rttvar %v/%v, connection had %v/%v", e.SRTT, e.RTTVar, s1.rtt.srtt, s1.rtt.rttvar)
			}
			if e.Ssthresh != 0 {
				t.Errorf("stored ssthresh %v from a connection that never lost", e.Ssthresh)
			}

			hits := cache.Hits
			s2 := tr.open(w, cfg, "m2", "device")
			if cache.Hits != hits+1 {
				t.Error("lookup not counted")
			}
			if s2.SRTT() != e.SRTT || s2.Ssthresh() != 1<<20 {
				t.Errorf("second connection: srtt %v ssthresh %v, want the cached %v and no ssthresh", s2.SRTT(), s2.Ssthresh(), e.SRTT)
			}
			if s2.RTO() < 3*s2.SRTT() {
				t.Errorf("seeded RTO %v not conservative vs srtt %v", s2.RTO(), s2.SRTT())
			}

			w.loop.Run(w.loop.Now().Add(time.Second)) // handshake: only an open connection stores
			s2.ssthresh = 33                          // as a loss would have left it
			s2.close()
			s3 := tr.open(w, cfg, "m3", "device")
			if s3.Ssthresh() != 33 {
				t.Errorf("third connection: ssthresh %v, want the stored 33", s3.Ssthresh())
			}
			if other := tr.open(w, cfg, "m4", "elsewhere"); other.SRTT() != 0 || other.Ssthresh() != 1<<20 {
				t.Errorf("a different destination was seeded: srtt %v ssthresh %v", other.SRTT(), other.Ssthresh())
			}
		})
	}
}
