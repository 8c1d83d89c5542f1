package sandbox

import (
	"fmt"
	"strings"
	"syscall"
	"testing"
)

// prGetNoNewPrivs reads the no_new_privs bit (prctl); it changes nothing.
const prGetNoNewPrivs = 39

// TestApplyReachesProbedLevel jails a child and checks two things: the
// achieved level equals what Probe predicted from the parent (same
// kernel), and at the landlock level the filesystem really is sealed —
// opening a file that exists must fail.
//
// Probe reports the kernel, which is what the server's children, built
// without cgo, reach. A test binary that links cgo, as every -race build
// does, gets ENOTSUP from AllThreadsSyscall, so its helper child can
// only reach the rlimit level; the test then expects exactly that.
func TestApplyReachesProbedLevel(t *testing.T) {
	out, err := helper(t, "apply").CombinedOutput()
	if err != nil {
		t.Fatalf("helper: %v\n%s", err, out)
	}
	got := strings.TrimSpace(string(out))
	want := fmt.Sprintf("level=%s open_failed=%v", Probe(), Probe() == LevelLandlock)
	if _, _, errno := syscall.AllThreadsSyscall(syscall.SYS_PRCTL, prGetNoNewPrivs, 0, 0); errno == syscall.ENOTSUP {
		want = fmt.Sprintf("level=%s open_failed=false", LevelRlimit)
	}
	if got != want {
		t.Fatalf("helper reported %q, want %q", got, want)
	}
}
