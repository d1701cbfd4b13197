package webpage

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"spdier/internal/sim"
)

// quickConfig is a quick.Config whose cases are drawn from a fixed seed,
// which it logs: a case that fails is the same case on the next run, not
// one the clock chose.
func quickConfig(t *testing.T, maxCount int) *quick.Config {
	const seed = 1
	t.Logf("quick.Check: %d cases from seed %d", maxCount, seed)
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(seed))}
}

func TestTable1HasTwentySites(t *testing.T) {
	specs := Table1()
	if len(specs) != 20 {
		t.Fatalf("%d sites", len(specs))
	}
	for i, s := range specs {
		if s.Index != i+1 {
			t.Fatalf("site %d has index %d", i, s.Index)
		}
		if s.TotalObjs <= 0 || s.AvgSizeKB <= 0 || s.Domains < 1 {
			t.Fatalf("site %d degenerate: %+v", i, s)
		}
	}
	// Spot-check published values.
	if specs[8].TotalObjs != 5.1 || specs[14].TotalObjs != 323.0 {
		t.Fatal("published counts corrupted")
	}
	if specs[16].AvgSizeKB != 4691.3 {
		t.Fatal("published size corrupted")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := Table1()[6]
	a := Generate(spec, sim.NewRNG(99))
	b := Generate(spec, sim.NewRNG(99))
	if len(a.Objects) != len(b.Objects) || a.TotalBytes() != b.TotalBytes() {
		t.Fatal("same seed produced different pages")
	}
	for i := range a.Objects {
		if *a.Objects[i] != *b.Objects[i] {
			t.Fatalf("object %d differs", i)
		}
	}
}

func TestGenerateMatchesMarginals(t *testing.T) {
	for _, spec := range Table1() {
		var objs, kb, doms float64
		const runs = 8
		for s := uint64(0); s < runs; s++ {
			p := Generate(spec, sim.NewRNG(s))
			objs += float64(len(p.Objects))
			kb += float64(p.TotalBytes()) / 1024
			doms += float64(len(p.Domains()))
		}
		objs, kb, doms = objs/runs, kb/runs, doms/runs
		if objs < spec.TotalObjs*0.85 || objs > spec.TotalObjs*1.15 {
			t.Errorf("site %d: objects %.1f vs published %.1f", spec.Index, objs, spec.TotalObjs)
		}
		if kb < spec.AvgSizeKB*0.8 || kb > spec.AvgSizeKB*1.2 {
			t.Errorf("site %d: weight %.0fKB vs published %.0fKB", spec.Index, kb, spec.AvgSizeKB)
		}
		want := float64(int(spec.Domains + 0.5))
		if doms != want && spec.Domains >= 1 {
			t.Errorf("site %d: domains %.1f vs %.1f", spec.Index, doms, want)
		}
	}
}

// TestDependencyGraphWellFormed: every object but the main document
// hangs under an object of its page one wave above it, and only
// documents, scripts and stylesheets have children.
func TestDependencyGraphWellFormed(t *testing.T) {
	check := func(seed uint64, idx uint8) bool {
		spec := Table1()[int(idx)%20]
		p := Generate(spec, sim.NewRNG(seed))
		if p.Main().ID != 0 || p.Main().Parent != -1 || p.Main().Wave != 0 {
			return false
		}
		byID := map[int]*Object{}
		for _, o := range p.Objects {
			byID[o.ID] = o
		}
		for _, o := range p.Objects[1:] {
			parent, ok := byID[o.Parent]
			if !ok {
				return false // dangling parent
			}
			if parent.Wave != o.Wave-1 {
				return false // waves must step by one
			}
			// Only documents, scripts and stylesheets reveal children.
			if parent.Kind != KindHTML && parent.Kind != KindJS && parent.Kind != KindCSS {
				return false
			}
			if o.Size <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, quickConfig(t, 60)); err != nil {
		t.Fatal(err)
	}
}

// TestChildrenConsistentWithParents: walking each object's children (the
// objects whose Parent is its id) meets every object but the main
// document exactly once.
func TestChildrenConsistentWithParents(t *testing.T) {
	p := Generate(Table1()[14], sim.NewRNG(3)) // the 323-object site
	seen := make([]int, len(p.Objects))
	for _, o := range p.Objects {
		for _, c := range p.Objects {
			if c.Parent == o.ID {
				seen[c.ID]++
			}
		}
	}
	for id, n := range seen {
		if want := min(id, 1); n != want {
			t.Fatalf("object %d found under %d parents, want %d", id, n, want)
		}
	}
}

func TestScriptHeavySitesRunDeeper(t *testing.T) {
	light := Generate(Table1()[8], sim.NewRNG(1))  // 5-object shopping page
	heavy := Generate(Table1()[14], sim.NewRNG(1)) // 73 scripts news page
	if heavy.MaxWave() <= light.MaxWave() {
		t.Fatalf("script-heavy page not deeper: %d vs %d", heavy.MaxWave(), light.MaxWave())
	}
}

func TestCountKind(t *testing.T) {
	p := Generate(Table1()[0], sim.NewRNG(5))
	sum := p.CountKind(KindHTML) + p.CountKind(KindJS) + p.CountKind(KindCSS) +
		p.CountKind(KindImg) + p.CountKind(KindText)
	if sum != len(p.Objects) {
		t.Fatalf("kind counts %d != %d objects", sum, len(p.Objects))
	}
	if p.CountKind(KindHTML) < 1 {
		t.Fatal("no HTML document")
	}
}

func TestProcessingDelaysOnlyOnScriptsAndSheets(t *testing.T) {
	p := Generate(Table1()[13], sim.NewRNG(9))
	for _, o := range p.Objects {
		switch o.Kind {
		case KindImg, KindText:
			if o.ProcessingDelay != 0 {
				t.Fatalf("object %d (%s) has processing delay", o.ID, o.Kind)
			}
		case KindJS:
			if o.ProcessingDelay <= 0 {
				t.Fatalf("script %d has no processing delay", o.ID)
			}
		}
	}
}

func TestTestPages(t *testing.T) {
	same := TestPage(true)
	diff := TestPage(false)
	for _, p := range []*Page{same, diff} {
		if len(p.Objects) != 51 {
			t.Fatalf("%s: %d objects", p.Name, len(p.Objects))
		}
		if p.MaxWave() != 1 {
			t.Fatalf("%s: interdependencies present (wave %d)", p.Name, p.MaxWave())
		}
		for _, o := range p.Objects[1:] {
			if o.Parent != 0 || o.Kind != KindImg || o.Size != 60<<10 {
				t.Fatalf("%s: object %+v", p.Name, o)
			}
		}
	}
	if n := len(same.Domains()); n != 1 {
		t.Fatalf("same-domain page has %d domains", n)
	}
	if n := len(diff.Domains()); n != 51 {
		t.Fatalf("different-domain page has %d domains", n)
	}
}

// TestGenerateNames holds the names cut out of the page's one name
// buffer to what formatting them one by one gave.
func TestGenerateNames(t *testing.T) {
	for _, spec := range Table1() {
		p := Generate(spec, sim.NewRNG(uint64(spec.Index)))
		domains := map[string]bool{fmt.Sprintf("www.site%d.example", spec.Index): true}
		for i := 1; i < len(p.Domains()); i++ {
			domains[fmt.Sprintf("cdn%d.site%d.example", i, spec.Index)] = true
		}
		if want := fmt.Sprintf("site%02d-%s", spec.Index, spec.Category); p.Name != want {
			t.Fatalf("site %d: page named %q, want %q", spec.Index, p.Name, want)
		}
		if main := p.Main(); main.Path != "/" || main.Domain != fmt.Sprintf("www.site%d.example", spec.Index) {
			t.Fatalf("site %d: main document at %s%s", spec.Index, main.Domain, main.Path)
		}
		for _, o := range p.Objects[1:] {
			if want := fmt.Sprintf("/%s/%d", o.Kind, o.ID); o.Path != want {
				t.Fatalf("site %d object %d: path %q, want %q", spec.Index, o.ID, o.Path, want)
			}
			if !domains[o.Domain] {
				t.Fatalf("site %d object %d: domain %q is none of the page's %d", spec.Index, o.ID, o.Domain, len(domains))
			}
		}
	}
}

// TestGenerateAllocations: a page costs a fixed number of allocations —
// the page, the object slab and pointer slice, the name buffer, its
// index and the string cut from it (the page's name among them), each
// object's domain index, the kinds and their shuffle, and the revealer
// array — whatever its object count. On a warm Generator, which has
// built the largest page before, it costs only what the page keeps: the
// page, the slab, the pointer slice and the string of names.
// It used to cost three per object (the Object, its path, and the boxed
// arguments of the Sprintf that made the path).
func TestGenerateAllocations(t *testing.T) {
	// One-shot: 10 measured, 11 under the race detector's build (the
	// budget was set at 13 when the page's name was still a Sprintf of
	// its own). Warm: 4 measured, with or without it.
	const budget, warmBudget = 13, 4
	var g Generator
	g.Generate(Table1()[14], sim.NewRNG(7)) // the 323-object site: every scratch slice at its largest
	for _, spec := range Table1() {         // 5 to 323 objects
		rng := sim.NewRNG(7)
		objects := len(Generate(spec, rng).Objects)
		if n := testing.AllocsPerRun(20, func() { Generate(spec, rng) }); n > budget {
			t.Fatalf("site %d (%d objects): Generate allocates %v objects, want at most %d whatever the count", spec.Index, objects, n, budget)
		}
		if n := testing.AllocsPerRun(20, func() { g.Generate(spec, rng) }); n > warmBudget {
			t.Fatalf("site %d (%d objects): a warm Generator allocates %v objects, want at most %d whatever the count", spec.Index, objects, n, warmBudget)
		}
	}
}

// TestReservedGeneratorDoesNotGrow: a Generator reserved for Table 1
// holds the scratch of any page its sites can jitter to, so none of its
// pages, the first included, grows a scratch slice: each is built on the
// reserved arrays as Reserve left them, over enough seeds to reach each
// count's extremes, and ends on the same arrays.
func TestReservedGeneratorDoesNotGrow(t *testing.T) {
	var sized Generator
	sized.Reserve(Table1())
	arrays := func(g *Generator) [6]unsafe.Pointer {
		return [6]unsafe.Pointer{
			unsafe.Pointer(unsafe.SliceData(g.names)), unsafe.Pointer(unsafe.SliceData(g.ends)),
			unsafe.Pointer(unsafe.SliceData(g.domainOf)), unsafe.Pointer(unsafe.SliceData(g.kinds)),
			unsafe.Pointer(unsafe.SliceData(g.perm)), unsafe.Pointer(unsafe.SliceData(g.ids)),
		}
	}
	want := arrays(&sized)
	for _, spec := range Table1() {
		for seed := range uint64(500) {
			g := sized
			page := g.Generate(spec, sim.NewRNG(seed))
			if got := arrays(&g); got != want {
				t.Fatalf("site %d seed %d (%d objects) grew its scratch: arrays %v, reserved %v", spec.Index, seed, len(page.Objects), got, want)
			}
		}
	}
}

// TestGeneratorMatchesGenerate: a Generator that built other pages
// before, larger and smaller, builds the page a fresh Generate does —
// no scratch an earlier page left is read as this page's.
func TestGeneratorMatchesGenerate(t *testing.T) {
	var g Generator
	specs := Table1()
	for round := uint64(0); round < 3; round++ {
		for _, i := range sim.NewRNG(round).Perm(len(specs)) {
			spec := specs[i]
			seed := round*100 + uint64(spec.Index)
			want, got := Generate(spec, sim.NewRNG(seed)), g.Generate(spec, sim.NewRNG(seed))
			if got.Name != want.Name || got.Category != want.Category || len(got.Objects) != len(want.Objects) {
				t.Fatalf("site %d seed %d: page %q of %d objects, want %q of %d", spec.Index, seed, got.Name, len(got.Objects), want.Name, len(want.Objects))
			}
			for j := range want.Objects {
				if *got.Objects[j] != *want.Objects[j] {
					t.Fatalf("site %d seed %d object %d: %+v, want %+v", spec.Index, seed, j, *got.Objects[j], *want.Objects[j])
				}
			}
		}
	}
}
