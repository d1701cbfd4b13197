package browser

import "fmt"

// Pool-accounting checker, after tcpsim's: the package's tests switch it
// on in TestMain and every HTTP establish, dispatch, response and close
// then holds the maintained connection counts to the walks they
// replaced, and a page record lent to the next page is held to the
// drain rule (checkLent). The checks are pure reads; enabling them cannot perturb a
// simulation, only observe it.
//
// invOn is written only from EnableInvariants, which must not race with
// a running simulation (tests call it before any run starts).
var invOn bool

// EnableInvariants turns the checker on for the rest of the process; a
// violation panics, since any drift is a simulator bug.
func EnableInvariants() { invOn = true }

// checkPools recounts, over every pool and handle, what ActiveConns and
// reclaimIdleConn used to walk for on every call, and compares.
func (b *Browser) checkPools(where string) {
	total, established, idle := 0, 0, 0
	for _, p := range b.poolOrder {
		total += len(p.conns)
		poolIdle := 0
		for _, h := range p.conns {
			if h.established {
				established++
			}
			if h.idle() {
				poolIdle++
			}
		}
		if poolIdle != p.idle {
			panic(fmt.Sprintf("browser invariant pool-counts violated at %v after %s: pool %s maintains %d idle, holds %d",
				b.loop.Now(), where, p.domain, p.idle, poolIdle))
		}
		idle += poolIdle
	}
	if total != b.totalConns || established != b.establishedConns || idle != b.idleConns {
		panic(fmt.Sprintf("browser invariant pool-counts violated at %v after %s: maintained total/established/idle %d/%d/%d, pools hold %d/%d/%d",
			b.loop.Now(), where, b.totalConns, b.establishedConns, b.idleConns, total, established, idle))
	}
}

// checkFlow audits the flow-control books of every open multiplexed
// session: credit is conserved and no window stands above its initial
// size (proxy.Session.CheckFlowConservation).
func (b *Browser) checkFlow(where string) {
	for _, h := range b.mux {
		if err := h.sess.CheckFlowConservation(); err != nil {
			panic(fmt.Sprintf("browser invariant flow-credit violated at %v at %s on %s: %v", b.loop.Now(), where, h.id, err))
		}
	}
}

// checkLent holds a drained page to what lending its record assumes: the
// page is over, its watchdog is not pending, and no fetch of its slab is
// waiting in a domain queue or for its response — recounted from the
// object records, whose Done only a landed response sets, not taken from
// the outstanding count the drain rule reads.
func (b *Browser) checkLent(pl *pageLoad) {
	waiting := 0
	for i := range pl.rec.Objects {
		if f := &pl.fetches[i]; f.next != nil || f.or.Done == 0 {
			waiting++
		}
	}
	if !pl.finished || pl.watchdog.Pending() || waiting != 0 {
		panic(fmt.Sprintf("browser invariant page-lend violated at %v: lending %s's record (finished %t, watchdog pending %t) with %d of %d fetches still waiting",
			b.loop.Now(), pl.page.Name, pl.finished, pl.watchdog.Pending(), waiting, len(pl.rec.Objects)))
	}
}
