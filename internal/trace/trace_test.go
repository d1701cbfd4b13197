package trace

import (
	"testing"
	"time"

	"spdier/internal/sim"
	"spdier/internal/tcpsim"
	"spdier/internal/webpage"
)

func ms(n int) sim.Time { return sim.Time(n) * sim.Millisecond }

func TestObjectRecordPhases(t *testing.T) {
	or := &ObjectRecord{
		Discovered: ms(100),
		Requested:  ms(400),
		FirstByte:  ms(900),
		Done:       ms(1500),
	}
	if or.Init() != 300*time.Millisecond {
		t.Fatalf("init %v", or.Init())
	}
	if or.Wait() != 500*time.Millisecond {
		t.Fatalf("wait %v", or.Wait())
	}
	if or.Recv() != 600*time.Millisecond {
		t.Fatalf("recv %v", or.Recv())
	}
}

func TestPageRecordPLTAndMeanPhase(t *testing.T) {
	pr := &PageRecord{
		Start:  ms(1000),
		OnLoad: ms(6000),
		Objects: []*ObjectRecord{
			{Discovered: ms(1000), Requested: ms(1100), FirstByte: ms(1200), Done: ms(1300)},
			{Discovered: ms(1000), Requested: ms(1300), FirstByte: ms(1500), Done: ms(1900)},
		},
	}
	if pr.PLT() != 5*time.Second {
		t.Fatalf("PLT %v", pr.PLT())
	}
	if got := pr.MeanPhase((*ObjectRecord).Init); got != 200*time.Millisecond {
		t.Fatalf("mean init %v", got)
	}
	empty := &PageRecord{}
	if empty.MeanPhase((*ObjectRecord).Init) != 0 {
		t.Fatal("empty mean phase")
	}
}

func TestProxyRecordPhases(t *testing.T) {
	pr := &ProxyRecord{
		Obj:             &webpage.Object{ID: 1},
		ReqArrived:      ms(0),
		OriginFirstByte: ms(14),
		OriginDone:      ms(18),
		SendStart:       ms(500),
		SendDone:        ms(900),
	}
	if pr.OriginWait() != 14*time.Millisecond || pr.OriginDownload() != 4*time.Millisecond {
		t.Fatalf("origin leg: %v %v", pr.OriginWait(), pr.OriginDownload())
	}
	if pr.QueueDelay() != 482*time.Millisecond {
		t.Fatalf("queue %v", pr.QueueDelay())
	}
	if pr.Transfer() != 400*time.Millisecond {
		t.Fatalf("transfer %v", pr.Transfer())
	}
}

func retxSample(at sim.Time, conn string) tcpsim.ProbeSample {
	return tcpsim.ProbeSample{At: at, ConnID: conn, Event: tcpsim.EvRetransmit}
}

func TestFindRetxBurstsClusters(t *testing.T) {
	rec := tcpsim.NewRecorder()
	// Burst 1: three events on one connection within 200 ms.
	rec.Sample(retxSample(ms(1000), "a"))
	rec.Sample(retxSample(ms(1100), "a"))
	rec.Sample(retxSample(ms(1200), "a"))
	// Gap ≫ 500 ms. Burst 2: two connections.
	rec.Sample(retxSample(ms(5000), "b"))
	rec.Sample(retxSample(ms(5100), "c"))
	// Non-retx events must be ignored.
	rec.Sample(tcpsim.ProbeSample{At: ms(5200), ConnID: "x", Event: tcpsim.EvAck})

	bursts := FindRetxBursts(rec, 500*time.Millisecond)
	if len(bursts) != 2 {
		t.Fatalf("bursts %v", bursts)
	}
	if bursts[0].Count != 3 || len(bursts[0].Conns) != 1 || bursts[0].Conns[0] != (ConnRetx{ID: "a", N: 3}) {
		t.Fatalf("burst 0: %+v", bursts[0])
	}
	if bursts[1].Count != 2 || len(bursts[1].Conns) != 2 {
		t.Fatalf("burst 1: %+v", bursts[1])
	}
	if f := SingleConnBurstFraction(bursts); f != 0.5 {
		t.Fatalf("single-conn fraction %v", f)
	}
}

func TestFindRetxBurstsIncludesFastRetx(t *testing.T) {
	rec := tcpsim.NewRecorder()
	rec.Sample(tcpsim.ProbeSample{At: ms(100), ConnID: "a", Event: tcpsim.EvFastRetx})
	bursts := FindRetxBursts(rec, time.Second)
	if len(bursts) != 1 || bursts[0].Count != 1 {
		t.Fatalf("%v", bursts)
	}
}

func TestSingleConnBurstFractionEmpty(t *testing.T) {
	if SingleConnBurstFraction(nil) != 0 {
		t.Fatal("empty input")
	}
}
