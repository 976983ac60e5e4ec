// Package fsatomic provides crash-consistent file replacement: readers of
// a path observe either the previous complete content or the new complete
// content, never a torn write. Checkpoints, manifests, and cached plans
// are written through it so a SIGKILL mid-write cannot corrupt the last
// good snapshot.
//
// Beyond plain atomic replacement, the package offers a sealed envelope
// format (WriteSealed/ReadSealed): payloads framed with a magic string, a
// format version, and a SHA-256 digest, so a reader can tell a truncated
// or bit-flipped file from a healthy one before trusting a single payload
// byte. Failures are classified with sentinel errors (ErrChecksum,
// ErrVersion, ErrMalformed, ErrShortWrite, ErrDiskFull) so callers can
// route corrupt files to quarantine and full disks to graceful
// degradation instead of treating every failure alike.
package fsatomic

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
)

// Sentinel errors classifying why a write or sealed read failed. Match
// with errors.Is.
var (
	// ErrShortWrite: the OS accepted fewer bytes than requested without
	// reporting an error — the temp file was discarded.
	ErrShortWrite = errors.New("fsatomic: short write")
	// ErrChecksum: a sealed file's payload digest does not match its
	// header — the file is truncated or corrupted.
	ErrChecksum = errors.New("fsatomic: checksum mismatch")
	// ErrVersion: a sealed file carries a format version this build does
	// not read.
	ErrVersion = errors.New("fsatomic: format version mismatch")
	// ErrMalformed: a file is not a sealed envelope of the expected kind
	// (unparsable framing, another magic), or its payload does not decode.
	ErrMalformed = errors.New("fsatomic: malformed sealed file")
	// ErrDiskFull: the filesystem is out of space (ENOSPC/EDQUOT). The
	// target path is untouched; callers can degrade (skip the write, evict,
	// alert) instead of crashing.
	ErrDiskFull = errors.New("fsatomic: disk full")
)

// TestHookWriteErr, when non-nil, is invoked after the temp file's bytes
// are written but before the rename publishes them; returning an error
// aborts the write as if the OS had failed at that point. It exists so
// tests can prove that a failed atomic write never leaves a partial file
// visible. Set it only from tests, and never while writes are in flight.
var TestHookWriteErr func(path string) error

// classify wraps err with the matching sentinel when the underlying
// errno says the filesystem is out of space/quota (persistent) or out of
// file descriptors (transient).
func classify(err error) error {
	if errors.Is(err, syscall.ENOSPC) || errors.Is(err, syscall.EDQUOT) {
		return fmt.Errorf("%w: %w", ErrDiskFull, err)
	}
	if errors.Is(err, syscall.EMFILE) || errors.Is(err, syscall.ENFILE) {
		return fmt.Errorf("%w: %w", ErrFDExhausted, err)
	}
	return err
}

// WriteFile atomically replaces path with data: the bytes are written to a
// temporary file in the same directory, fsynced, and renamed over path.
// On any error the temporary file is removed and path is left untouched.
func WriteFile(path string, data []byte, perm os.FileMode) error {
	return WriteFileFS(OS, path, data, perm)
}

// sealedEnvelope is the on-disk framing of WriteSealed: the payload bytes
// plus everything needed to reject the file before trusting them.
type sealedEnvelope struct {
	Magic   string          `json:"magic"`
	Version int             `json:"version"`
	SHA256  string          `json:"sha256"`
	Payload json.RawMessage `json:"payload"`
}

// seal frames payload in a checksummed envelope; unseal validates and
// unwraps one. WriteSealed/ReadSealed and their FS variants share them.
func seal(magic string, version int, payload []byte) ([]byte, error) {
	sum := sha256.Sum256(payload)
	env, err := json.Marshal(sealedEnvelope{
		Magic:   magic,
		Version: version,
		SHA256:  hex.EncodeToString(sum[:]),
		Payload: payload,
	})
	if err != nil {
		return nil, fmt.Errorf("fsatomic: seal: %w", err)
	}
	return env, nil
}

func unseal(path, magic string, version int, data []byte) ([]byte, error) {
	var env sealedEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("%w: %s: %w", ErrMalformed, filepath.Base(path), err)
	}
	if env.Magic != magic {
		return nil, fmt.Errorf("%w: %s: magic %q (want %q)", ErrMalformed, filepath.Base(path), env.Magic, magic)
	}
	if env.Version != version {
		return nil, fmt.Errorf("%w: %s: format version %d (this build reads version %d)", ErrVersion, filepath.Base(path), env.Version, version)
	}
	sum := sha256.Sum256(env.Payload)
	if got := hex.EncodeToString(sum[:]); got != env.SHA256 {
		return nil, fmt.Errorf("%w: %s: header %s, payload %s", ErrChecksum, filepath.Base(path), env.SHA256, got)
	}
	return env.Payload, nil
}

// WriteSealed atomically writes payload to path inside a checksummed
// envelope carrying magic and version. The payload must be valid JSON
// (it is embedded verbatim).
func WriteSealed(path, magic string, version int, payload []byte, perm os.FileMode) error {
	return WriteSealedFS(OS, path, magic, version, payload, perm)
}

// ReadSealed reads a file written by WriteSealed and returns its payload
// after validating the magic, version, and digest. Content failures
// match ErrMalformed, ErrVersion, or ErrChecksum (see Untrusted); a
// failed read returns the filesystem's error.
func ReadSealed(path, magic string, version int) ([]byte, error) {
	return ReadSealedFS(OS, path, magic, version)
}
