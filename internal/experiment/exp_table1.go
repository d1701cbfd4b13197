package experiment

import (
	"spdier/internal/sim"
	"spdier/internal/webpage"
)

func init() {
	register("table1", "Characteristics of tested websites", runTable1)
}

// runTable1 regenerates Table 1: for every site, the generator's average
// object counts, page weight and domain spread across seeds, next to the
// published numbers.
func runTable1(h Harness) *Report {
	r := NewReport("table1", "Characteristics of tested websites",
		"20 sites; 5.1–323 objects; 56 KB–4.7 MB; 2–84.7 domains; heavy JS/CSS use")
	specs := webpage.Table1()
	r.Printf("%-4s %-14s | %8s %8s %8s %8s %8s %8s | %8s %8s",
		"site", "category", "objs", "sizeKB", "domains", "text", "js/css", "imgs", "objs*", "sizeKB*")
	r.Printf("%s", "  (* = published Table 1 value; unstarred = generated, averaged over seeds)")

	var genTot, pubTot float64
	for _, spec := range specs {
		var objs, kb, doms, text, jscss, imgs float64
		for i := 0; i < h.Runs; i++ {
			rng := sim.NewRNG(h.Seed + uint64(i))
			page := webpage.Generate(spec, rng.Fork(uint64(spec.Index)))
			objs += float64(len(page.Objects))
			kb += float64(float64(page.TotalBytes()) / 1024)
			doms += float64(len(page.Domains()))
			text += float64(page.CountKind(webpage.KindHTML) + page.CountKind(webpage.KindText))
			jscss += float64(page.CountKind(webpage.KindJS) + page.CountKind(webpage.KindCSS))
			imgs += float64(page.CountKind(webpage.KindImg))
		}
		n := float64(h.Runs)
		r.Printf("%-4d %-14s | %8.1f %8.1f %8.1f %8.1f %8.1f %8.1f | %8.1f %8.1f",
			spec.Index, spec.Category, objs/n, kb/n, doms/n, text/n, jscss/n, imgs/n,
			spec.TotalObjs, spec.AvgSizeKB)
		genTot += objs / n
		pubTot += spec.TotalObjs
	}
	r.Metric("generated total objects (all sites)", genTot, "objects")
	r.Metric("published total objects (all sites)", pubTot, "objects")
	return r
}
