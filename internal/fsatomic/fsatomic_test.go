package fsatomic

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestWriteFileAtomicOnFailure pins the package's core promise: a write
// that fails at any injectable point leaves (a) no partial target file
// and (b) the previous content intact, with no temp debris behind.
func TestWriteFileAtomicOnFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.json")
	if err := WriteFile(path, []byte(`{"gen":1}`), 0o644); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("injected device error")
	TestHookWriteErr = func(string) error { return boom }
	defer func() { TestHookWriteErr = nil }()

	err := WriteFile(path, []byte(`{"gen":2,"junk":"partial"}`), 0o644)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want injected failure", err)
	}
	got, rerr := os.ReadFile(path)
	if rerr != nil || string(got) != `{"gen":1}` {
		t.Fatalf("target after failed write: %q, %v — want previous content intact", got, rerr)
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("temp debris left behind: %s", e.Name())
		}
	}
}

// TestWriteFileFreshTargetFailure: when the target did not exist yet, a
// failed write must not create it at all.
func TestWriteFileFreshTargetFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fresh.json")
	TestHookWriteErr = func(string) error { return errors.New("injected") }
	defer func() { TestHookWriteErr = nil }()
	if err := WriteFile(path, []byte("x"), 0o644); err == nil {
		t.Fatal("write unexpectedly succeeded")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("failed write created the target (stat err=%v)", err)
	}
}

func TestSealedRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "entry.plan")
	payload := []byte(`{"hello":"world","n":42}`)
	if err := WriteSealed(path, "magis-test", 3, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSealed(path, "magis-test", 3)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Fatalf("payload = %s, want %s", got, payload)
	}
}

// TestSealedRejections: every way a sealed file can be untrustworthy is
// classified as Untrusted — wrong magic (ErrMalformed), wrong version
// (ErrVersion), flipped payload byte (ErrChecksum), truncation and
// non-JSON garbage — while a missing file is a read failure.
func TestSealedRejections(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "entry.plan")
	if err := WriteSealed(path, "magis-test", 1, []byte(`{"v":1}`), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := ReadSealed(path, "other-magic", 1); !errors.Is(err, ErrMalformed) || !Untrusted(err) {
		t.Errorf("wrong magic: err = %v, want ErrMalformed", err)
	}
	if _, err := ReadSealed(path, "magis-test", 2); !errors.Is(err, ErrVersion) || !Untrusted(err) {
		t.Errorf("wrong version: err = %v, want ErrVersion", err)
	}

	// Flip one payload byte inside the envelope.
	raw, _ := os.ReadFile(path)
	flipped := append([]byte(nil), raw...)
	i := strings.LastIndexByte(string(flipped), '1') // the payload's "1"
	flipped[i] ^= 0x02                               // '1' -> '3': still JSON, wrong digest
	bad := filepath.Join(dir, "flipped.plan")
	if err := os.WriteFile(bad, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSealed(bad, "magis-test", 1); !errors.Is(err, ErrChecksum) || !Untrusted(err) {
		t.Errorf("flipped payload byte: err = %v, want ErrChecksum", err)
	}

	// Truncation (a torn write that bypassed the atomic path).
	trunc := filepath.Join(dir, "trunc.plan")
	if err := os.WriteFile(trunc, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSealed(trunc, "magis-test", 1); !Untrusted(err) {
		t.Errorf("truncated file: err = %v, want untrusted", err)
	}

	// Garbage.
	junk := filepath.Join(dir, "junk.plan")
	if err := os.WriteFile(junk, []byte("\x00\xff not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSealed(junk, "magis-test", 1); !Untrusted(err) {
		t.Errorf("garbage file: err = %v, want untrusted", err)
	}
	if _, err := ReadSealed(filepath.Join(dir, "missing.plan"), "magis-test", 1); err == nil || Untrusted(err) {
		t.Errorf("missing file: err = %v, want a read failure, not untrusted", err)
	}
}

func TestShortWriteSentinel(t *testing.T) {
	// The sentinel must survive the wrapping applied on the failure path.
	err := error(nil)
	func() {
		defer func() { TestHookWriteErr = nil }()
		TestHookWriteErr = func(string) error { return ErrShortWrite }
		err = WriteFile(filepath.Join(t.TempDir(), "f"), []byte("abc"), 0o644)
	}()
	if !errors.Is(err, ErrShortWrite) {
		t.Fatalf("err = %v, want ErrShortWrite to be matchable", err)
	}
}
