package sandbox

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"testing"
	"time"
)

// The jail is one-way, so Apply can never run inside the test process:
// every Apply test re-executes the test binary as a helper child (the
// same shape the native tier uses it in).
func TestMain(m *testing.M) {
	switch os.Getenv("SANDBOX_TEST_HELPER") {
	case "":
		os.Exit(m.Run())
	case "apply":
		level, err := Apply(Limits{MemBytes: 4 << 30, NoFile: 64})
		if err != nil {
			fmt.Printf("err=%v\n", err)
			os.Exit(1)
		}
		_, openErr := os.Open(os.Args[0]) // the one file that certainly exists
		fmt.Printf("level=%s open_failed=%v\n", level, openErr != nil)
		os.Exit(0)
	case "spin":
		if _, err := Apply(Limits{CPUSecs: 1}); err != nil {
			fmt.Printf("err=%v\n", err)
			os.Exit(1)
		}
		// Deliberately does NOT subscribe to SIGXCPU: this helper proves
		// the kernel's hard-limit SIGKILL backstop, the path taken by a
		// child whose signal handling is somehow broken. The cooperative
		// SIGXCPU exit is internal/native/child's job and is covered by
		// the native-tier budget tests.
		for i := 0; ; i++ {
			_ = i * i
		}
	}
}

func helper(t *testing.T, mode string) *exec.Cmd {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run=TestMain")
	cmd.Env = append(os.Environ(), "SANDBOX_TEST_HELPER="+mode)
	return cmd
}

func TestProbeMatchesPlatform(t *testing.T) {
	level := Probe()
	if runtime.GOOS != "linux" {
		if level != LevelNone || Supported() {
			t.Fatalf("non-linux probe = %q supported=%v, want none/false", level, Supported())
		}
		return
	}
	if !Supported() {
		t.Fatal("Supported() = false on linux")
	}
	if level != LevelRlimit && level != LevelLandlock {
		t.Fatalf("linux probe = %q, want rlimit or rlimit+landlock", level)
	}
}

// TestCPULimitKillsSpin: a child with a 1-second RLIMIT_CPU spinning
// forever and ignoring SIGXCPU (as the raw Go runtime does) must still
// be destroyed by the hard limit's SIGKILL, a few seconds later, well
// before any wall-clock deadline the parent holds.
func TestCPULimitKillsSpin(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("sandbox is linux-only")
	}
	if testing.Short() {
		t.Skip("burns ~3s of CPU")
	}
	cmd := helper(t, "spin")
	start := time.Now()
	err := cmd.Run()
	if err == nil {
		t.Fatal("spinning child exited cleanly")
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("helper: %v", err)
	}
	ws, ok := ee.Sys().(syscall.WaitStatus)
	if !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
		t.Fatalf("child died with %v, want the hard-limit SIGKILL", err)
	}
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Fatalf("CPU kill took %s wall time", elapsed)
	}
}
