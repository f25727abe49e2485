package store

import (
	"bytes"
	"path/filepath"
)

// BlobStore is the byte-blob face of the cache: opaque encoded artifacts
// (recorded oracle traces, internal/trace) keyed by content address, next
// to the JSON results the Store interface serves. Blobs are stored and
// returned verbatim — integrity is the artifact format's job (a trace
// carries its own checksum and fails loudly at decode), the store's job
// is only atomicity and eviction. Implementations must be safe for
// concurrent use.
type BlobStore interface {
	// GetBlob returns the cached bytes for key; the caller owns the
	// returned slice. The bool reports presence; errors are backend
	// failures, never plain misses.
	GetBlob(key string) ([]byte, bool, error)
	// PutBlob caches raw under key, overwriting any previous entry.
	PutBlob(key string, raw []byte) error
}

// blobKey namespaces blob entries inside Memory's LRU so a blob and a
// result under the same content address never collide. Keys are hex
// digests, so ':' cannot occur in a result key.
func blobKey(key string) string { return "blob:" + key }

// GetBlob implements BlobStore. Blobs share the LRU with results: a hot
// trace keeps itself resident exactly like a hot cell.
func (m *Memory) GetBlob(key string) ([]byte, bool, error) {
	raw, ok := m.get(blobKey(key))
	if !ok {
		return nil, false, nil
	}
	return bytes.Clone(raw), true, nil
}

// PutBlob implements BlobStore.
func (m *Memory) PutBlob(key string, raw []byte) error {
	m.put(blobKey(key), bytes.Clone(raw))
	return nil
}

// blobPath maps a key to its file: <key>.trace, so blobs live alongside
// the .json results without ever colliding with them (and Len's *.json
// count stays a result count).
func (d *Disk) blobPath(key string) (string, error) {
	p, err := d.path(key)
	if err != nil {
		return "", err
	}
	return p[:len(p)-len(".json")] + ".trace", nil
}

// GetBlob implements BlobStore.
func (d *Disk) GetBlob(key string) ([]byte, bool, error) {
	p, err := d.blobPath(key)
	if err != nil {
		return nil, false, err
	}
	return read(p)
}

// PutBlob implements BlobStore with the same atomic write as Put: no
// reader ever observes a truncated blob.
func (d *Disk) PutBlob(key string, raw []byte) error {
	p, err := d.blobPath(key)
	if err != nil {
		return err
	}
	return d.write(p, raw)
}

// BlobLen reports the number of blobs on disk.
func (d *Disk) BlobLen() int {
	matches, err := filepath.Glob(filepath.Join(d.dir, "*.trace"))
	if err != nil {
		return 0
	}
	return len(matches)
}

// GetBlob implements BlobStore over the tiers: Fast first with promotion
// of Slow hits, exactly like result reads. A tier that does not support
// blobs is skipped (reads fall through, writes go to the tiers that do).
func (t Tiered) GetBlob(key string) ([]byte, bool, error) {
	fast, fastOK := t.Fast.(BlobStore)
	if fastOK {
		if raw, ok, err := fast.GetBlob(key); ok || err != nil {
			return raw, ok, err
		}
	}
	slow, ok := t.Slow.(BlobStore)
	if !ok {
		return nil, false, nil
	}
	raw, found, err := slow.GetBlob(key)
	if !found || err != nil {
		return nil, false, err
	}
	if fastOK {
		_ = fast.PutBlob(key, raw)
	}
	return raw, true, nil
}

// PutBlob implements BlobStore, writing through to every blob-capable
// tier (durable tier first, mirroring Put).
func (t Tiered) PutBlob(key string, raw []byte) error {
	if slow, ok := t.Slow.(BlobStore); ok {
		if err := slow.PutBlob(key, raw); err != nil {
			return err
		}
	}
	if fast, ok := t.Fast.(BlobStore); ok {
		return fast.PutBlob(key, raw)
	}
	return nil
}
