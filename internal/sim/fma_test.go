package sim

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestNoFusedMultiplyAdd cross-compiles this package, tcpsim, rrc,
// webpage, stats and experiment for arm64 and fails on any fused
// multiply-add in their assembly. The Go spec lets a compiler fuse x*y + z into one
// instruction that rounds once; amd64 does not, arm64 does, and a
// fused draw or window would
// differ in its last bit from the one every pin was recorded with. An
// explicit float64(x*y) forbids the fusion. Cross-compiling needs
// nothing beyond the toolchain.
func TestNoFusedMultiplyAdd(t *testing.T) {
	gocmd, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command to cross-compile with")
	}
	fused := regexp.MustCompile(`\((\S+:\d+)\)\s+(FMADDD|FMSUBD|FNMADDD|FNMSUBD)\b`)
	for _, pkg := range []struct{ dir, symbol string }{
		{".", "(*RNG).Norm STEXT"},
		{"../tcpsim", "(*Cubic).OnAckCA STEXT"},
		{"../rrc", "(*Machine).accrueEnergy STEXT"},
		{"../webpage", "webpage.Generate STEXT"},
		{"../stats", "stats.quantileSorted STEXT"},
		{"../experiment", "experiment.Run STEXT"},
	} {
		cmd := exec.Command(gocmd, "build", "-gcflags=-S", pkg.dir)
		cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH=arm64", "CGO_ENABLED=0")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("cross-compiling %s for arm64: %v\n%s", pkg.dir, err, out)
		}
		asm := string(out)
		if !strings.Contains(asm, pkg.symbol) {
			t.Fatalf("the arm64 build of %s printed no assembly for %s:\n%.2000s", pkg.dir, pkg.symbol, asm)
		}
		for _, m := range fused.FindAllStringSubmatch(asm, -1) {
			t.Errorf("%s: %s", filepath.Base(m[1]), m[2])
		}
	}
}
