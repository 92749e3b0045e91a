package golden

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// recorder is a testing.TB that keeps Check's failures instead of
// failing the test that drives it.
type recorder struct {
	testing.TB
	errs []string
}

func (r *recorder) Helper() {}

func (r *recorder) Errorf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

func writeFile(t *testing.T, data string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "golden_x.txt")
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCheckMismatchNamesFileAndCommand(t *testing.T) {
	t.Setenv("GOLDEN", "")
	path := writeFile(t, "a\nb\n")
	r := &recorder{TB: t}
	Check(r, path, []byte("a\nc\n"))
	if len(r.errs) != 1 {
		t.Fatalf("mismatch reported %d failures, want 1: %q", len(r.errs), r.errs)
	}
	for _, want := range []string{path, "GOLDEN=update go test ./..."} {
		if !strings.Contains(r.errs[0], want) {
			t.Errorf("failure %q does not mention %q", r.errs[0], want)
		}
	}
	if data, _ := os.ReadFile(path); string(data) != "a\nb\n" {
		t.Errorf("a failing check rewrote the file: %q", data)
	}
}

func TestCheckMissingFileFails(t *testing.T) {
	t.Setenv("GOLDEN", "")
	path := filepath.Join(t.TempDir(), "absent.txt")
	r := &recorder{TB: t}
	Check(r, path, []byte("a\n"))
	if len(r.errs) != 1 || !strings.Contains(r.errs[0], path) {
		t.Fatalf("missing file: failures %q, want one naming %s", r.errs, path)
	}
	if _, err := os.Stat(path); err == nil {
		t.Error("a failing check created the file")
	}
}

func TestCheckUpdateWrites(t *testing.T) {
	t.Setenv("GOLDEN", "update")
	stale := writeFile(t, "old\n")
	missing := filepath.Join(t.TempDir(), "new.txt")
	for _, path := range []string{stale, missing} {
		r := &recorder{TB: t}
		Check(r, path, []byte("new\n"))
		if len(r.errs) != 0 {
			t.Fatalf("%s: update failed: %q", path, r.errs)
		}
		if data, err := os.ReadFile(path); err != nil || string(data) != "new\n" {
			t.Errorf("%s after update = %q, %v; want %q", path, data, err, "new\n")
		}
	}
}
