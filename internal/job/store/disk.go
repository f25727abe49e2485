package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/stats"
)

// Disk is an on-disk JSON store: one <key>.json file per result under a
// directory. Writes are atomic (temp file + rename), so a crashed or
// concurrent writer can never leave a truncated entry behind; concurrent
// writers of the same key race benignly — both write identical bytes,
// because keys are content digests of the job and results are
// deterministic.
type Disk struct {
	dir string
}

// NewDisk returns a disk store rooted at dir, creating it if needed.
func NewDisk(dir string) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Disk{dir: dir}, nil
}

// path maps a key to its file. Keys are hex digests (validated here so a
// hostile key cannot escape the directory).
func (d *Disk) path(key string) (string, error) {
	if key == "" || strings.ContainsAny(key, "/\\.") {
		return "", fmt.Errorf("store: malformed key %q", key)
	}
	return filepath.Join(d.dir, key+".json"), nil
}

// Get implements Store.
func (d *Disk) Get(key string) (*stats.Run, bool, error) {
	p, err := d.path(key)
	if err != nil {
		return nil, false, err
	}
	raw, ok, err := read(p)
	if !ok || err != nil {
		return nil, false, err
	}
	r, err := decode(raw)
	if err != nil {
		return nil, false, fmt.Errorf("store: %s: %w", p, err)
	}
	return r, true, nil
}

// Put implements Store.
func (d *Disk) Put(key string, r *stats.Run) error {
	p, err := d.path(key)
	if err != nil {
		return err
	}
	raw, err := encode(r)
	if err != nil {
		return err
	}
	return d.write(p, raw)
}

// read returns the file's bytes; a missing file is a miss, not an error.
func read(p string) ([]byte, bool, error) {
	raw, err := os.ReadFile(p)
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("store: %w", err)
	}
	return raw, true, nil
}

// write replaces the file at p with raw atomically: the bytes go to a
// temp file in the store's directory, which is then renamed over p.
func (d *Disk) write(p string, raw []byte) error {
	tmp, err := os.CreateTemp(d.dir, "put-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	_, err = tmp.Write(raw)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), p)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Len implements Store, counting the entries on disk.
func (d *Disk) Len() int {
	matches, err := filepath.Glob(filepath.Join(d.dir, "*.json"))
	if err != nil {
		return 0
	}
	return len(matches)
}
