package clusterfs

import (
	"fmt"
	iofs "io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Dir-backed mode: when FS.dir is non-empty, every file lives under that
// directory on the real filesystem instead of the in-memory map. This is
// what makes the multi-process MPP deployment real: several dashdb-local
// shard-server processes plus a dashdbctl coordinator all open the same
// directory (the stand-in for the paper's POSIX clustered filesystem
// mounted at /mnt/clusterfs), so a surviving node can adopt a dead
// node's shard file-sets without any data copy — the files were shared
// all along (§II.E).
//
// The in-memory backend remains the default for tests and simulations;
// both modes present the identical FS API.

// OpenDir returns an FS rooted at dir on the host filesystem, creating
// the directory if needed.
func OpenDir(dir string) (*FS, error) {
	if dir == "" {
		return nil, fmt.Errorf("clusterfs: empty directory")
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("clusterfs: %w", err)
	}
	if err := os.MkdirAll(abs, 0o755); err != nil {
		return nil, fmt.Errorf("clusterfs: %w", err)
	}
	return &FS{dir: abs}, nil
}

// IsDir reports whether the FS is disk-backed (shared between processes).
func (fs *FS) IsDir() bool { return fs.dir != "" }

// Dir returns the backing directory ("" for the in-memory backend).
func (fs *FS) Dir() string { return fs.dir }

// hostPath maps a clusterfs path to its on-disk location, rejecting
// escapes from the root: the namespace is flat keys like
// "shards/0004/pages/T00000001/C0001/S00000012".
func (fs *FS) hostPath(path string) (string, error) {
	clean := filepath.Clean("/" + path) // forces the path under "/"
	if clean == "/" {
		return "", fmt.Errorf("clusterfs: empty path")
	}
	return filepath.Join(fs.dir, clean), nil
}

func (fs *FS) dirWrite(path string, data []byte) error {
	hp, err := fs.hostPath(path)
	if err != nil {
		return err
	}
	dir := filepath.Dir(hp)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("clusterfs: %s: %w", path, err)
	}
	// Write a uniquely named temp file, sync it, then rename it over the
	// target and sync the directory: concurrent readers never observe a
	// torn file, writers in other processes sharing the directory never
	// share a temp file, and the rename survives a crash once we return.
	tmp, err := os.CreateTemp(dir, filepath.Base(hp)+".*.tmp")
	if err != nil {
		return fmt.Errorf("clusterfs: %s: %w", path, err)
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Chmod(0o644) // CreateTemp makes 0600; other node processes read it
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), hp)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("clusterfs: %s: %w", path, err)
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("clusterfs: %s: %w", path, err)
	}
	return nil
}

// syncDir fsyncs a directory so a rename inside it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

func (fs *FS) dirRead(path string) ([]byte, error) {
	hp, err := fs.hostPath(path)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(hp)
	if err != nil {
		return nil, fmt.Errorf("clusterfs: %s: %w", path, err)
	}
	return data, nil
}

func (fs *FS) dirRemove(path string) {
	if hp, err := fs.hostPath(path); err == nil {
		os.Remove(hp)
	}
}

func (fs *FS) dirRemovePrefix(prefix string) {
	for _, p := range fs.dirList(prefix) {
		fs.dirRemove(p)
	}
}

func (fs *FS) dirList(prefix string) []string {
	var out []string
	root := fs.dir
	filepath.WalkDir(root, func(hp string, d iofs.DirEntry, err error) error {
		if err != nil || d.IsDir() || strings.HasSuffix(hp, ".tmp") {
			return nil
		}
		rel, err := filepath.Rel(root, hp)
		if err != nil {
			return nil
		}
		p := filepath.ToSlash(rel)
		if strings.HasPrefix(p, prefix) {
			out = append(out, p)
		}
		return nil
	})
	sort.Strings(out)
	return out
}

func (fs *FS) dirTotalBytes() int {
	total := 0
	for _, p := range fs.dirList("") {
		if hp, err := fs.hostPath(p); err == nil {
			if fi, err := os.Stat(hp); err == nil {
				total += int(fi.Size())
			}
		}
	}
	return total
}
