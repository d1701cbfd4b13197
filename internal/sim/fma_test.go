package sim

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestNoFusedMultiplyAdd cross-compiles this package for arm64 and
// fails on any fused multiply-add in its assembly. The Go spec lets a
// compiler fuse x*y + z into one instruction that rounds once; amd64
// does not, arm64 does, and a fused draw would differ in its last bit
// from the one every pin was recorded with. An explicit float64(x*y)
// forbids the fusion. Cross-compiling needs nothing beyond the
// toolchain.
func TestNoFusedMultiplyAdd(t *testing.T) {
	gocmd, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command to cross-compile with")
	}
	cmd := exec.Command(gocmd, "build", "-gcflags=-S", ".")
	cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH=arm64", "CGO_ENABLED=0")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("cross-compiling for arm64: %v\n%s", err, out)
	}
	asm := string(out)
	if !strings.Contains(asm, "(*RNG).Norm STEXT") {
		t.Fatalf("the arm64 build printed no assembly for RNG.Norm:\n%.2000s", asm)
	}
	fused := regexp.MustCompile(`\((\S+:\d+)\)\s+(FMADDD|FMSUBD|FNMADDD|FNMSUBD)\b`)
	for _, m := range fused.FindAllStringSubmatch(asm, -1) {
		t.Errorf("%s: %s", filepath.Base(m[1]), m[2])
	}
}
