// Package webpage models web pages as the browser sees them: a main HTML
// document plus objects (scripts, stylesheets, images, text) spread
// across domains, with the dependency structure that controls *when* the
// browser can discover each object.
//
// The catalog reproduces Table 1 of the paper: the 20 most-requested
// full-site pages among top Alexa sites as measured by the authors, with
// per-site average object counts, page weight, domain spread and
// script/stylesheet intensity. Pages are generated deterministically
// from those marginals plus a seed.
package webpage

import (
	"fmt"
	"strconv"

	"spdier/internal/sim"
)

// Kind classifies an object for priority and dependency purposes.
type Kind string

// Object kinds.
const (
	KindHTML Kind = "html"
	KindJS   Kind = "js"
	KindCSS  Kind = "css"
	KindText Kind = "text" // XHR, JSON, tracking beacons
	KindImg  Kind = "img"
)

// Object is one fetchable resource of a page.
type Object struct {
	ID     int
	Kind   Kind
	Size   int    // response body bytes
	Domain string // fully qualified host
	Path   string

	// Parent is the object whose processing reveals this one (-1 for
	// the main document itself). Wave is the discovery depth: the main
	// document is wave 0, objects referenced by it are wave 1, objects
	// referenced by wave-1 scripts/stylesheets are wave 2, and so on.
	// This is the stepping Figure 6 observes in SPDY request times.
	Parent int
	Wave   int

	// ProcessingDelay models parse/execute time after download before
	// this object can reveal children (scripts are processed
	// sequentially by the browser; see §5.2).
	ProcessingDelay sim.Time
}

// Page is a complete synthetic web page.
type Page struct {
	Name     string
	Category string
	Objects  []*Object // Objects[0] is always the main HTML document
}

// Main returns the root HTML document.
func (p *Page) Main() *Object { return p.Objects[0] }

// TotalBytes sums all object sizes.
func (p *Page) TotalBytes() int {
	t := 0
	for _, o := range p.Objects {
		t += o.Size
	}
	return t
}

// Domains returns the distinct domains in first-seen order.
func (p *Page) Domains() []string {
	seen := make(map[string]bool)
	var out []string
	for _, o := range p.Objects {
		if !seen[o.Domain] {
			seen[o.Domain] = true
			out = append(out, o.Domain)
		}
	}
	return out
}

// CountKind returns the number of objects of the given kind.
func (p *Page) CountKind(k Kind) int {
	n := 0
	for _, o := range p.Objects {
		if o.Kind == k {
			n++
		}
	}
	return n
}

// MaxWave returns the deepest discovery wave.
func (p *Page) MaxWave() int {
	m := 0
	for _, o := range p.Objects {
		if o.Wave > m {
			m = o.Wave
		}
	}
	return m
}

// SiteSpec is one row of Table 1.
type SiteSpec struct {
	Index     int
	Category  string
	TotalObjs float64 // average object count including the home page
	AvgSizeKB float64 // average total page weight in KB
	Domains   float64 // average distinct domains
	TextObjs  float64 // average text objects (HTML/XHR/JSON)
	JSCSS     float64 // average scripts + stylesheets
	ImgsOther float64 // average images and other objects
}

// Table1 returns the characteristics of the 20 tested websites exactly
// as published in Table 1 of the paper.
func Table1() []SiteSpec {
	return []SiteSpec{
		{1, "Finance", 134.8, 626.9, 37.6, 28.6, 41.3, 64.9},
		{2, "Entertainment", 160.6, 2197.3, 36.3, 16.5, 28.0, 116.1},
		{3, "Shopping", 143.8, 1563.1, 15.8, 13.3, 36.8, 93.7},
		{4, "Portal", 121.6, 963.3, 27.5, 9.6, 18.3, 93.7},
		{5, "Technology", 45.2, 602.8, 3.0, 2.0, 18.0, 25.2},
		{6, "ISP", 163.4, 1594.5, 13.2, 13.2, 36.4, 113.8},
		{7, "News", 115.8, 1130.6, 28.5, 9.1, 49.5, 57.2},
		{8, "News", 157.7, 1184.5, 27.3, 29.6, 28.3, 99.8},
		{9, "Shopping", 5.1, 56.2, 2.0, 3.1, 2.0, 0.0},
		{10, "Auction", 59.3, 719.7, 17.9, 6.8, 7.0, 45.5},
		{11, "Online Radio", 122.1, 1489.1, 17.9, 24.1, 21.0, 77.0},
		{12, "Photo Sharing", 29.4, 688.0, 4.0, 2.3, 10.0, 17.1},
		{13, "Technology", 63.4, 895.1, 9.0, 4.1, 15.0, 44.3},
		{14, "Baseball", 167.8, 1130.5, 12.5, 19.5, 94.0, 54.3},
		{15, "News", 323.0, 1722.7, 84.7, 73.4, 73.6, 176.0},
		{16, "Football", 267.1, 2311.0, 75.0, 60.3, 56.9, 149.9},
		{17, "News", 218.5, 4691.3, 37.0, 19.0, 56.3, 143.2},
		{18, "Photo Sharing", 33.6, 1664.8, 9.1, 3.3, 6.7, 23.6},
		{19, "Online Radio", 68.7, 2908.9, 15.5, 5.2, 23.8, 39.7},
		{20, "Weather", 163.2, 1653.8, 48.7, 19.7, 45.3, 98.2},
	}
}

func round(f float64) int {
	n := int(f + 0.5)
	if n < 0 {
		return 0
	}
	return n
}

// Generate builds a page matching spec's marginals. The same spec and
// seed always yield the same page; different runs perturb counts and
// sizes slightly via rng, matching the run-to-run variation the paper
// reports ("numbers are averaged across runs"). It is a Generator's
// Generate on fresh scratch.
func Generate(spec SiteSpec, rng *sim.RNG) *Page {
	var g Generator
	return g.Generate(spec, rng)
}

// Generator builds pages one after another on the same scratch: the name
// buffer and its index, each object's domain, the kinds and their
// shuffle, and the revealer ids die with the page, so the next page of a
// run writes over them instead of allocating its own. What a page keeps —
// the page, its object slab and pointer slice, the string its names
// (its own among them) are cut from — is still its own. The zero value
// is ready; a Generator is not safe for concurrent use.
type Generator struct {
	names    []byte
	ends     []int
	domainOf []int
	kinds    []Kind
	perm     []int
	ids      []int
}

// scratchLens is how long a page's scratch slices are: names and ends
// index its names, objs is its object count (domainOf; kinds and perm
// hold one fewer), ids its revealer array.
type scratchLens struct{ names, ends, objs, ids int }

// maxWaves is how many waves can reveal another: the main document's
// (0) and waves 1–3; the deepest, 4, reveals none.
const maxWaves = 4

// lens returns the scratch lengths of a page of spec with the given
// counts, as Generate draws them.
func lens(spec SiteSpec, nText, nJSCSS, nImg int) scratchLens {
	total, nDomains := max(1, nText)+nJSCSS+nImg, max(1, round(spec.Domains))
	return scratchLens{
		names: 32*nDomains + 12*total + 8 + len(spec.Category),
		ends:  nDomains + total + 1,
		objs:  total,
		ids:   maxWaves * (nJSCSS + 1),
	}
}

// Reserve sizes g's scratch once for the largest page any of specs can
// jitter to (every count at its most, round(1.08·x)), so that building
// their pages on g grows none of it.
func (g *Generator) Reserve(specs []SiteSpec) {
	if len(specs) == 0 {
		return
	}
	most := func(x float64) int { return round(float64(1.08 * x)) } // the conversion keeps the product unfused
	var m scratchLens
	for _, spec := range specs {
		l := lens(spec, most(spec.TextObjs), most(spec.JSCSS), most(spec.ImgsOther))
		m = scratchLens{max(m.names, l.names), max(m.ends, l.ends), max(m.objs, l.objs), max(m.ids, l.ids)}
	}
	g.names, g.ends = make([]byte, m.names), make([]int, m.ends)
	g.domainOf, g.kinds, g.perm = make([]int, m.objs), make([]Kind, m.objs-1), make([]int, m.objs-1)
	g.ids = make([]int, m.ids)
}

// scratch returns s with length n, reusing its array when it holds n.
// Its elements are whatever an earlier page left: the caller writes each
// before reading it.
func scratch[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Generate is the package's Generate on g's scratch: the same page for
// the same spec and rng, whatever g built before.
func (g *Generator) Generate(spec SiteSpec, rng *sim.RNG) *Page {
	jitter := func(f float64) int {
		n := round(float64(f * (0.92 + float64(0.16*rng.Float64()))))
		return n
	}

	nText := jitter(spec.TextObjs)
	nJSCSS := jitter(spec.JSCSS)
	nImg := jitter(spec.ImgsOther)
	if nText < 1 {
		nText = 1 // the main document is a text object
	}
	total := nText + nJSCSS + nImg
	nDomains := round(spec.Domains)
	if nDomains < 1 {
		nDomains = 1
	}

	// Size budget: the main document gets a healthy share, the rest is
	// log-normally spread so a few large images dominate, as real pages do.
	totalBytes := float64(spec.AvgSizeKB * 1024 * (0.92 + float64(0.16*rng.Float64())))
	mainShare := 0.08
	if total < 10 {
		mainShare = 0.4
	}
	mainSize := int(totalBytes * mainShare)
	if mainSize < 4096 {
		mainSize = 4096
	}

	// Every name the page needs — its domains, a path per object, then
	// its own — is written into one buffer and cut out of the one string
	// made from it at the end, and the objects come from one slab: a page
	// costs a fixed number of allocations, not a few per object.
	l := lens(spec, nText, nJSCSS, nImg)
	names := scratch(g.names, l.names)[:0]
	ends := scratch(g.ends, l.ends)[:1] // names[ends[i]:ends[i+1]] is the i-th name
	ends[0] = 0

	// Domains: primary first, then third parties; object assignment is
	// skewed toward the primary domain like real pages (CDN + trackers).
	names = append(names, "www.site"...)
	names = strconv.AppendInt(names, int64(spec.Index), 10)
	names = append(names, ".example"...)
	ends = append(ends, len(names))
	for i := 1; i < nDomains; i++ {
		names = append(names, "cdn"...)
		names = strconv.AppendInt(names, int64(i), 10)
		names = append(names, ".site"...)
		names = strconv.AppendInt(names, int64(spec.Index), 10)
		names = append(names, ".example"...)
		ends = append(ends, len(names))
	}
	// Every domain the page "uses" must appear at least once (that is
	// what Table 1's domain counts mean), so the first objects cover the
	// third-party domains and the rest skew toward the primary, like
	// real pages with their CDNs and trackers.
	// pickDomain returns the index of the chosen domain.
	coverIdx := 0
	pickDomain := func() int {
		if coverIdx < nDomains-1 {
			coverIdx++
			return coverIdx
		}
		if nDomains == 1 || rng.Bool(0.45) {
			return 0
		}
		return 1 + rng.Intn(nDomains-1)
	}

	page := &Page{
		Category: spec.Category,
		Objects:  make([]*Object, 0, total),
	}
	slab := make([]Object, total)
	domainOf := scratch(g.domainOf, total) // each object's domain, by index, until the names are cut
	domainOf[0] = 0                        // the main document's, on the primary domain
	slab[0] = Object{
		ID:              0,
		Kind:            KindHTML,
		Size:            mainSize,
		Path:            "/",
		Parent:          -1,
		Wave:            0,
		ProcessingDelay: sim.Time(40 * sim.Millisecond),
	}
	page.Objects = append(page.Objects, &slab[0])

	// Build the remaining objects with kinds in a deterministic shuffle.
	kinds := scratch(g.kinds, total-1)[:0]
	for i := 0; i < nText-1; i++ {
		kinds = append(kinds, KindText)
	}
	for i := 0; i < nJSCSS; i++ {
		if i%3 == 2 {
			kinds = append(kinds, KindCSS)
		} else {
			kinds = append(kinds, KindJS)
		}
	}
	for i := 0; i < nImg; i++ {
		kinds = append(kinds, KindImg)
	}
	perm := scratch(g.perm, len(kinds))
	rng.PermInto(perm)

	restBytes := totalBytes - float64(mainSize)
	if restBytes < 0 {
		restBytes = 0
	}
	meanObj := restBytes / float64(len(kinds)+1)

	// Dependency structure: JS/CSS objects in earlier waves reveal later
	// waves. Depth scales with script intensity — heavy-scripted pages
	// show more steps in Figure 6.
	maxWave := 2
	if nJSCSS > 20 {
		maxWave = 3
	}
	if nJSCSS > 60 {
		maxWave = 4
	}

	// revealers[w] collects wave-w JS/CSS ids that can parent wave w+1,
	// each wave in its own stretch of one array (no wave can hold more
	// than every script and stylesheet; wave 0 holds the main document).
	var revealers [maxWaves][]int
	ids := scratch(g.ids, l.ids)
	for w := range revealers {
		revealers[w] = ids[w*(nJSCSS+1) : w*(nJSCSS+1) : (w+1)*(nJSCSS+1)]
	}
	revealers[0] = append(revealers[0], 0)

	for i, pi := range perm {
		k := kinds[pi]
		var size int
		switch k {
		case KindImg:
			size = int(rng.LogNorm(meanObj*1.1, 0.9))
		case KindJS, KindCSS:
			size = int(rng.LogNorm(meanObj*0.7, 0.7))
		default:
			size = int(rng.LogNorm(meanObj*0.3, 0.8))
		}
		if size < 120 {
			size = 120
		}
		if size > 1<<21 {
			size = 1 << 21
		}

		// Choose a wave: biased early, deeper for scripted pages.
		wave := 1
		r := rng.Float64()
		switch {
		case r < 0.55:
			wave = 1
		case r < 0.85 && maxWave >= 2:
			wave = 2
		case maxWave >= 3 && r < 0.96:
			wave = 3
		default:
			wave = min(maxWave, 2)
		}
		if wave > maxWave {
			wave = maxWave
		}
		// Parent must be a revealer from the previous wave.
		parents := revealers[wave-1]
		for len(parents) == 0 && wave > 1 {
			wave--
			parents = revealers[wave-1]
		}
		parent := parents[rng.Intn(len(parents))]

		var proc sim.Time
		if k == KindJS {
			proc = sim.Time((5 + sim.Time(rng.Intn(26))) * sim.Millisecond)
		} else if k == KindCSS {
			proc = sim.Time((2 + sim.Time(rng.Intn(9))) * sim.Millisecond)
		}

		o := &slab[i+1]
		*o = Object{
			ID:              i + 1,
			Kind:            k,
			Size:            size,
			Parent:          parent,
			Wave:            wave,
			ProcessingDelay: proc,
		}
		domainOf[o.ID] = pickDomain()
		names = append(names, '/')
		names = append(names, k...)
		names = append(names, '/')
		names = strconv.AppendInt(names, int64(o.ID), 10)
		ends = append(ends, len(names))
		page.Objects = append(page.Objects, o)
		if (k == KindJS || k == KindCSS) && wave < maxWave {
			revealers[wave] = append(revealers[wave], o.ID)
		}
	}

	// The page's name, fmt.Sprintf("site%02d-%s", spec.Index, spec.Category).
	names = append(names, "site"...)
	if spec.Index >= 0 && spec.Index < 10 {
		names = append(names, '0')
	}
	names = strconv.AppendInt(names, int64(spec.Index), 10)
	names = append(names, '-')
	names = append(names, spec.Category...)
	ends = append(ends, len(names))
	g.names, g.ends, g.domainOf, g.kinds, g.perm, g.ids = names, ends, domainOf, kinds, perm, ids

	// Cut the names: domain d is the d-th, object id's path the
	// (nDomains-1+id)-th, the page's the last.
	all := string(names)
	name := func(i int) string { return all[ends[i]:ends[i+1]] }
	page.Name = name(len(ends) - 2)
	for id, o := range page.Objects {
		o.Domain = name(domainOf[id])
		if id > 0 {
			o.Path = name(nDomains - 1 + id)
		}
	}

	// Normalize: the log-normal draws have mean > median, so rescale the
	// non-main objects to land the page on its Table 1 weight budget.
	var drawn float64
	for _, o := range page.Objects[1:] {
		drawn += float64(o.Size)
	}
	if drawn > 0 && restBytes > 0 {
		scale := restBytes / drawn
		for _, o := range page.Objects[1:] {
			o.Size = int(float64(o.Size) * scale)
			if o.Size < 120 {
				o.Size = 120
			}
		}
	}
	return page
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestPage builds the §5.2 validation pages: a main HTML document plus
// 50 images with no interdependencies, either all on one domain or each
// on its own domain.
func TestPage(sameDomain bool) *Page {
	name := "testpage-same-domain"
	if !sameDomain {
		name = "testpage-different-domains"
	}
	page := &Page{Name: name, Category: "synthetic"}
	page.Objects = append(page.Objects, &Object{
		ID:              0,
		Kind:            KindHTML,
		Size:            24 << 10,
		Domain:          "test.example",
		Path:            "/",
		Parent:          -1,
		ProcessingDelay: sim.Time(10 * sim.Millisecond),
	})
	for i := 1; i <= 50; i++ {
		domain := "test.example"
		if !sameDomain {
			domain = fmt.Sprintf("d%02d.test.example", i)
		}
		page.Objects = append(page.Objects, &Object{
			ID:     i,
			Kind:   KindImg,
			Size:   60 << 10,
			Domain: domain,
			Path:   fmt.Sprintf("/img/%d.jpg", i),
			Parent: 0,
			Wave:   1,
		})
	}
	return page
}
