package resultcache

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// The disk tier: an append-only JSONL file, one entry per line. Appends are
// single write(2) calls on an O_APPEND descriptor, so a crash can tear at
// most the line a writer was appending: the file's tail at the crash. Open
// ends such a torn tail with a newline before it appends, so the next entry
// starts a line of its own, and load skips each line that fails to parse
// and reads on. There is no in-place mutation and no compaction — torn
// lines and entries from other code versions are skipped on load (counted
// in Stats.DiskSkipped) but left in the file, so a cache directory shared
// across versions keeps every version's results until the operator clears
// it.

// diskFileName is the JSONL file inside a cache directory.
const diskFileName = "results.jsonl"

// diskLine is the wire form of one persisted entry.
type diskLine struct {
	Version string          `json:"version"`
	Label   string          `json:"label"`
	Seed    int64           `json:"seed"`
	Engine  string          `json:"engine"`
	Value   json.RawMessage `json:"value"`
}

type diskTier struct {
	path string
	f    *os.File
}

// Open returns a cache backed by the JSONL disk tier at dir (created if
// missing): existing entries under the pinned version are loaded into the
// memory tier (newest line wins for duplicate keys, byte budget respected),
// and every subsequent Put appends one line. maxBytes, version, and codec
// are as in New; the file may hold entries from any number of versions.
func Open[V any](maxBytes int64, version string, codec Codec[V], dir string) (*Cache[V], error) {
	c := New(maxBytes, version, codec)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultcache: %w", err)
	}
	path := filepath.Join(dir, diskFileName)
	torn, err := c.loadDisk(path)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("resultcache: %w", err)
	}
	if torn {
		// End the torn tail's line, so the first append does not join it.
		if _, err := f.Write([]byte{'\n'}); err != nil {
			f.Close()
			return nil, fmt.Errorf("resultcache: %w", err)
		}
	}
	c.disk = &diskTier{path: path, f: f}
	return c, nil
}

// loadDisk replays the JSONL file into the memory tier and reports whether
// the file ends without a newline (a torn tail). A missing file is an empty
// cache. A line that fails to parse, the newline-less tail included, is a
// torn or corrupt append: it is skipped, and the lines after it load.
func (c *Cache[V]) loadDisk(path string) (torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return false, nil
		}
		return false, fmt.Errorf("resultcache: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)
	for {
		line, err := r.ReadBytes('\n')
		if err != nil && err != io.EOF {
			return false, fmt.Errorf("resultcache: reading %s: %w", path, err)
		}
		if len(line) > 0 {
			c.loadLine(line)
		}
		if err == io.EOF {
			return len(line) > 0, nil
		}
	}
}

// loadLine loads one line of the JSONL file into the memory tier, or counts
// it in DiskSkipped when it fails to parse, holds another version's entry,
// or fails to decode.
func (c *Cache[V]) loadLine(line []byte) {
	var dl diskLine
	if json.Unmarshal(line, &dl) != nil || dl.Version != c.version {
		c.diskSkipped++
		return
	}
	v, err := c.codec.Decode(dl.Value)
	if err != nil {
		c.diskSkipped++
		return
	}
	fk := fullKey{Key: Key{Label: dl.Label, Seed: dl.Seed, Engine: dl.Engine}, Version: dl.Version}
	c.insert(fk, v, entrySize(fk, len(dl.Value)))
	c.diskLoaded++
}

// append writes one entry line. Callers hold the cache mutex, serializing
// appends from concurrent Puts.
func (d *diskTier) append(fk fullKey, data []byte) error {
	line, err := json.Marshal(diskLine{
		Version: fk.Version,
		Label:   fk.Label,
		Seed:    fk.Seed,
		Engine:  fk.Engine,
		Value:   data,
	})
	if err != nil {
		return err
	}
	// One Write call per line keeps tearing confined to the tail even when
	// several processes share the file through O_APPEND.
	if _, err := d.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("resultcache: appending %s: %w", d.path, err)
	}
	return nil
}

func (d *diskTier) close() error {
	return d.f.Close()
}
