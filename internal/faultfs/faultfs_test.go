package faultfs

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestOSPassthrough(t *testing.T) {
	dir := t.TempDir()
	sub := filepath.Join(dir, "a", "b")
	if err := OS.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(sub, "f.txt")
	f, err := OS.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello world")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("H"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(5); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := OS.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "Hello" {
		t.Fatalf("read %q, want %q", b, "Hello")
	}
	if _, err := OS.Stat(path); err != nil {
		t.Fatal(err)
	}
	ents, err := OS.ReadDir(sub)
	if err != nil || len(ents) != 1 {
		t.Fatalf("ReadDir = %v, %v", ents, err)
	}
	if err := OS.Rename(path, path+".new"); err != nil {
		t.Fatal(err)
	}
	if err := OS.Truncate(path+".new", 1); err != nil {
		t.Fatal(err)
	}
	if err := OS.Remove(path + ".new"); err != nil {
		t.Fatal(err)
	}
	if err := OS.RemoveAll(filepath.Join(dir, "a")); err != nil {
		t.Fatal(err)
	}
}

func TestInjectNthWrite(t *testing.T) {
	dir := t.TempDir()
	inj := NewInjector(OS)
	inj.SetRules(Rule{Op: OpWrite, After: 2, Count: 1})
	f, err := inj.OpenFile(filepath.Join(dir, "f"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i := 0; i < 4; i++ {
		_, err := f.Write([]byte("x"))
		if i == 2 {
			if !errors.Is(err, ErrInjected) || !errors.Is(err, syscall.EIO) {
				t.Fatalf("write %d: err = %v, want injected EIO", i, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if got := inj.Injected(); got != 1 {
		t.Fatalf("Injected = %d, want 1", got)
	}
}

func TestInjectENOSPCAfterBytes(t *testing.T) {
	dir := t.TempDir()
	inj := NewInjector(OS)
	inj.SetRules(Rule{Op: OpWrite, AfterBytes: 10, Err: syscall.ENOSPC})
	f, err := inj.OpenFile(filepath.Join(dir, "f"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// 3 x 4 bytes pass (the budget is consumed at 12 >= 10 only after the
	// write that crossed it), then everything fails with ENOSPC.
	var failedAt int
	for i := 0; i < 6; i++ {
		if _, err := f.Write([]byte("abcd")); err != nil {
			if !errors.Is(err, syscall.ENOSPC) {
				t.Fatalf("write %d: err = %v, want ENOSPC", i, err)
			}
			failedAt = i
			break
		}
	}
	if failedAt != 3 {
		t.Fatalf("first failure at write %d, want 3", failedAt)
	}
}

func TestInjectTornWrite(t *testing.T) {
	dir := t.TempDir()
	inj := NewInjector(OS)
	inj.SetRules(Rule{Op: OpWrite, Torn: true, Count: 1})
	path := filepath.Join(dir, "f")
	f, err := inj.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n, err := f.Write([]byte("0123456789"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want injected", err)
	}
	if n != 5 {
		t.Fatalf("short write landed %d bytes, want 5", n)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "01234" {
		t.Fatalf("file holds %q, want torn prefix %q", b, "01234")
	}
}

func TestInjectSyncAndPathFilter(t *testing.T) {
	dir := t.TempDir()
	inj := NewInjector(OS)
	inj.SetRules(Rule{Op: OpSync, Path: "shard-0000"})
	good, err := inj.OpenFile(filepath.Join(dir, "shard-0001.wal"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	bad, err := inj.OpenFile(filepath.Join(dir, "shard-0000.wal"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	if err := good.Sync(); err != nil {
		t.Fatalf("unmatched path failed: %v", err)
	}
	if err := bad.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("matched path: err = %v, want injected", err)
	}
}

func TestInjectLatencyOnly(t *testing.T) {
	dir := t.TempDir()
	inj := NewInjector(OS)
	inj.SetRules(Rule{Op: OpWrite, Delay: 30 * time.Millisecond, Count: 1})
	f, err := inj.OpenFile(filepath.Join(dir, "f"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	start := time.Now()
	if _, err := f.Write([]byte("x")); err != nil {
		t.Fatalf("latency-only rule must not fail the op: %v", err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("write returned in %v, want the scheduled delay", d)
	}
}

func TestBreakHeal(t *testing.T) {
	dir := t.TempDir()
	inj := NewInjector(OS)
	path := filepath.Join(dir, "f")
	if err := inj.WriteFile(path, []byte("ok"), 0o644); err != nil {
		t.Fatal(err)
	}
	inj.Break(nil)
	if !inj.Broken() {
		t.Fatal("Broken() = false after Break")
	}
	if err := inj.WriteFile(path, []byte("no"), 0o644); !errors.Is(err, ErrInjected) {
		t.Fatalf("write while broken: err = %v, want injected", err)
	}
	if err := inj.Rename(path, path+".x"); !errors.Is(err, syscall.EIO) {
		t.Fatalf("rename while broken: err = %v, want EIO", err)
	}
	// Reads keep working on a broken disk.
	if _, err := inj.ReadFile(path); err != nil {
		t.Fatalf("read while broken: %v", err)
	}
	if _, err := inj.Stat(path); err != nil {
		t.Fatalf("stat while broken: %v", err)
	}
	inj.Heal()
	if err := inj.WriteFile(path, []byte("ok2"), 0o644); err != nil {
		t.Fatalf("write after heal: %v", err)
	}
}

func TestTranscriptDeterministic(t *testing.T) {
	run := func() []Event {
		dir := t.TempDir()
		inj := NewInjector(OS)
		inj.SetRules(Rule{Op: OpSync, After: 1})
		f, err := inj.OpenFile(filepath.Join(dir, "f"), os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		for i := 0; i < 3; i++ {
			//lint:ignore droppederr the schedule injects failures on purpose; the transcript records them
			_, _ = f.Write([]byte("x"))
			//lint:ignore droppederr same: the transcript is the assertion target
			_ = f.Sync()
		}
		return inj.Transcript()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("transcript lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		ea, eb := a[i], b[i]
		// Paths differ per TempDir; compare the decision, not the path.
		if ea.Op != eb.Op || ea.Rule != eb.Rule || (ea.Fault == "") != (eb.Fault == "") {
			t.Fatalf("event %d differs: %+v vs %+v", i, ea, eb)
		}
	}
	var faults int
	for _, e := range a {
		if e.Fault != "" {
			faults++
		}
	}
	if faults != 2 {
		t.Fatalf("injected %d faults, want 2 (syncs 2 and 3)", faults)
	}
}

func TestWriteTranscript(t *testing.T) {
	inj := NewInjector(OS)
	inj.SetRules(Rule{Op: OpStat, Count: 1})
	if _, err := inj.Stat("/nonexistent"); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want injected", err)
	}
	var buf bytes.Buffer
	if err := inj.WriteTranscript(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"op":"stat"`) || !strings.Contains(out, "injected fault") {
		t.Fatalf("transcript missing expected fields: %s", out)
	}
}

func TestParseSchedule(t *testing.T) {
	rules, err := ParseSchedule("sync@5; write.torn@3x1; write.enospc~shard-0000@0x2; any@7")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 4 {
		t.Fatalf("got %d rules, want 4", len(rules))
	}
	if rules[0].Op != OpSync || rules[0].After != 5 || rules[0].Count != 0 || rules[0].Err != nil {
		t.Fatalf("rule 0 = %+v", rules[0])
	}
	if !rules[1].Torn || rules[1].After != 3 || rules[1].Count != 1 {
		t.Fatalf("rule 1 = %+v", rules[1])
	}
	if !errors.Is(rules[2].Err, syscall.ENOSPC) || rules[2].Path != "shard-0000" {
		t.Fatalf("rule 2 = %+v", rules[2])
	}
	if rules[3].Op != OpAny || rules[3].After != 7 {
		t.Fatalf("rule 3 = %+v", rules[3])
	}
	for _, bad := range parseScheduleRejects {
		if _, err := ParseSchedule(bad); err == nil {
			t.Errorf("ParseSchedule(%q) accepted, want error", bad)
		}
	}
}

var parseScheduleRejects = []string{"", "sync", "sync@-1", "sync@2x0", "warp@1", "sync.lol@1"}

// formatSchedule prints rules in ParseSchedule's syntax.
func formatSchedule(rules []Rule) string {
	var b strings.Builder
	for i, r := range rules {
		if i > 0 {
			b.WriteString(";")
		}
		op := string(r.Op)
		if r.Op == OpAny {
			op = "any"
		}
		b.WriteString(op)
		switch {
		case r.Torn:
			b.WriteString(".torn")
		case errors.Is(r.Err, syscall.ENOSPC):
			b.WriteString(".enospc")
		case r.Err != nil:
			b.WriteString(".eio")
		}
		if r.Path != "" {
			b.WriteString("~" + r.Path)
		}
		fmt.Fprintf(&b, "@%d", r.After)
		if r.Count > 0 {
			fmt.Fprintf(&b, "x%d", r.Count)
		}
	}
	return b.String()
}

// FuzzParseSchedule: parsing never panics, and an accepted schedule,
// printed by formatSchedule, parses back to the same rules.
func FuzzParseSchedule(f *testing.F) {
	f.Add("sync@5; write.torn@3x1; write.enospc~shard-0000@0x2; any@7")
	f.Add("read.eio~a.b~c x@+05x1;;")
	for _, bad := range parseScheduleRejects {
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		rules, err := ParseSchedule(spec)
		if err != nil {
			return
		}
		printed := formatSchedule(rules)
		again, err := ParseSchedule(printed)
		if err != nil {
			t.Fatalf("%q parsed to %+v, printed as %q, which fails: %v", spec, rules, printed, err)
		}
		if !reflect.DeepEqual(again, rules) {
			t.Fatalf("%q parsed to %+v, printed as %q, which parses to %+v", spec, rules, printed, again)
		}
	})
}
