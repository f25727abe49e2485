package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/emu"
	"repro/internal/trace"
)

// run calls a subcommand with os.Stdout redirected to a file and returns
// what it printed beside its error.
func run(t *testing.T, cmd func([]string) error, args ...string) (string, error) {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	saved := os.Stdout
	os.Stdout = out
	cmdErr := cmd(args)
	os.Stdout = saved
	printed, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(printed), cmdErr
}

// digestOf parses the trace header a subcommand printed.
func digestOf(t *testing.T, printed string) string {
	t.Helper()
	var meta trace.Meta
	if err := json.Unmarshal([]byte(printed), &meta); err != nil || meta.Digest == "" {
		t.Fatalf("no trace header in %q: %v", printed, err)
	}
	return meta.Digest
}

// TestConvertRoundTrip: a recording dumped to NDJSON converts back to the
// recorded trace, byte for byte; the same dump with one value edited is
// refused, naming the step, and writes nothing.
func TestConvertRoundTrip(t *testing.T) {
	dir := t.TempDir()
	recorded := filepath.Join(dir, "recorded.trace")
	printed, err := run(t, cmdRecord, "-bench", "compress", "-n", "1303", "-window", "1200", "-o", recorded)
	if err != nil {
		t.Fatal(err)
	}
	want := digestOf(t, printed)

	dump, err := run(t, cmdDump, "-bench", "compress", recorded)
	if err != nil {
		t.Fatal(err)
	}
	pristine := filepath.Join(dir, "steps.ndjson")
	if err := os.WriteFile(pristine, []byte(dump), 0o644); err != nil {
		t.Fatal(err)
	}
	converted := filepath.Join(dir, "converted.trace")
	printed, err = run(t, cmdConvert, "-bench", "compress", "-i", pristine, "-window", "1200", "-o", converted)
	if err != nil {
		t.Fatal(err)
	}
	if got := digestOf(t, printed); got != want {
		t.Errorf("converted digest %s, recorded %s", got, want)
	}
	a, errA := os.ReadFile(recorded)
	b, errB := os.ReadFile(converted)
	if errA != nil || errB != nil || !bytes.Equal(a, b) {
		t.Errorf("converted trace differs from the recording (%v, %v)", errA, errB)
	}

	// Edit the value of the first ALU result: a stream the program
	// cannot produce.
	lines := strings.Split(strings.TrimSuffix(dump, "\n"), "\n")
	edited := -1
	for i, line := range lines {
		var st emu.Step
		if err := json.Unmarshal([]byte(line), &st); err != nil {
			t.Fatal(err)
		}
		if st.WroteReg && !st.Inst.Op.IsBranch() && !st.Inst.Op.IsLoad() {
			st.Value++
			raw, err := json.Marshal(&st)
			if err != nil {
				t.Fatal(err)
			}
			lines[i], edited = string(raw), i
			break
		}
	}
	if edited < 0 {
		t.Fatal("dump has no ALU result to edit")
	}
	tampered := filepath.Join(dir, "tampered.ndjson")
	if err := os.WriteFile(tampered, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	refused := filepath.Join(dir, "refused.trace")
	_, err = run(t, cmdConvert, "-bench", "compress", "-i", tampered, "-window", "1200", "-o", refused)
	if err == nil {
		t.Fatal("tampered stream converted")
	}
	if name := fmt.Sprintf("step %d ", edited); !strings.Contains(err.Error(), name) {
		t.Errorf("error %q does not name %q", err, strings.TrimSpace(name))
	}
	if _, err := os.Stat(refused); !os.IsNotExist(err) {
		t.Errorf("refused conversion left %s behind (%v)", refused, err)
	}
}
