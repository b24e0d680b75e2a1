package vfs

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func validManifest() Manifest {
	return Manifest{
		Program:  ProgramSpec{Name: "null"},
		Strategy: "thread",
		Cache:    "disk",
	}
}

func TestIsActive(t *testing.T) {
	tests := []struct {
		give string
		want bool
	}{
		{"notes.af", true},
		{"dir/inbox.af", true},
		{"plain.txt", false},
		{"archive.af.data", false},
		{"", false},
		{".af", true},
	}
	for _, tt := range tests {
		if got := IsActive(tt.give); got != tt.want {
			t.Errorf("IsActive(%q) = %v, want %v", tt.give, got, tt.want)
		}
	}
}

func TestCreateLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "file.af")
	give := Manifest{
		Program:  ProgramSpec{Name: "compress", Args: []string{"-level", "3"}},
		Strategy: "procctl",
		Cache:    "memory",
		Source:   SourceSpec{Kind: "tcp", Addr: "127.0.0.1:9000", Path: "obj"},
		Params:   map[string]string{"window": "4096"},
	}
	if err := Create(path, give); err != nil {
		t.Fatalf("Create: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.Program.Name != "compress" || got.Strategy != "procctl" || got.Cache != "memory" ||
		got.Source.Addr != "127.0.0.1:9000" || got.Params["window"] != "4096" {
		t.Errorf("Load = %+v", got)
	}
	if got.Version != manifestVersion {
		t.Errorf("Version = %d, want %d", got.Version, manifestVersion)
	}
	if _, err := os.Stat(DataPath(path)); err != nil {
		t.Errorf("data part missing: %v", err)
	}
}

// TestManifestStore maps every way a manifest names its store onto one
// backend spec and object. Each manifest goes through Create and Load
// first: a binding Store refuses, such as an unknown source kind, is an
// open-time error, so such a file still loads (and can be renamed or
// removed).
func TestManifestStore(t *testing.T) {
	tests := []struct {
		name       string
		source     SourceSpec
		params     map[string]string
		spec, obj  string
		wantErrMsg string
	}{
		{name: "none"},
		{name: "tcp", source: SourceSpec{Kind: "tcp", Addr: "10.0.0.1:7301", Path: "obj"},
			spec: "remote:10.0.0.1:7301", obj: "obj"},
		{name: "http", source: SourceSpec{Kind: "http", Addr: "web:80", Path: "/pages/doc.txt"},
			spec: "http:web:80", obj: "pages/doc.txt"},
		{name: "http relative path", source: SourceSpec{Kind: "http", Addr: "web:80", Path: "doc.txt"},
			spec: "http:web:80", obj: "doc.txt"},
		{name: "backend and object", params: map[string]string{ParamBackend: "mem", ParamObject: "o1"},
			source: SourceSpec{Kind: "tcp", Addr: "10.0.0.1:7301", Path: "ignored"},
			spec:   "mem", obj: "o1"},
		{name: "backend falls back to source path", params: map[string]string{ParamBackend: "nativefs:/srv"},
			source: SourceSpec{Path: "o2"}, spec: "nativefs:/srv", obj: "o2"},
		{name: "backend without object", params: map[string]string{ParamBackend: "mem"},
			wantErrMsg: `backend "mem" binds no object (set object= or source.path)`},
		{name: "unknown kind", source: SourceSpec{Kind: "ftp", Addr: "x", Path: "y"},
			wantErrMsg: `unknown source kind "ftp"`},
	}
	dir := t.TempDir()
	for i, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			path := filepath.Join(dir, "m"+itoa(i)+".af")
			give := validManifest()
			give.Source, give.Params = tt.source, tt.params
			if err := Create(path, give); err != nil {
				t.Fatalf("Create: %v", err)
			}
			m, err := Load(path)
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			spec, obj, err := m.Store()
			if tt.wantErrMsg != "" {
				if err == nil || err.Error() != tt.wantErrMsg {
					t.Fatalf("Store() err = %v, want %q", err, tt.wantErrMsg)
				}
				return
			}
			if err != nil || spec != tt.spec || obj != tt.obj {
				t.Errorf("Store() = (%q, %q, %v), want (%q, %q, nil)", spec, obj, err, tt.spec, tt.obj)
			}
		})
	}
}

func TestCreateNoData(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "gen.af")
	m := validManifest()
	m.NoData = true
	if err := Create(path, m); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := os.Stat(DataPath(path)); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("data part exists for NoData manifest: %v", err)
	}
}

func TestCreateErrors(t *testing.T) {
	dir := t.TempDir()
	tests := []struct {
		name    string
		path    string
		m       Manifest
		wantErr error
	}{
		{name: "bad extension", path: filepath.Join(dir, "x.txt"), m: validManifest(), wantErr: ErrNotActive},
		{name: "no program", path: filepath.Join(dir, "a.af"), m: Manifest{}, wantErr: ErrBadManifest},
		{name: "bad strategy", path: filepath.Join(dir, "b.af"), m: Manifest{Program: ProgramSpec{Name: "x"}, Strategy: "dll"}, wantErr: ErrBadManifest},
		{name: "bad cache", path: filepath.Join(dir, "c.af"), m: Manifest{Program: ProgramSpec{Name: "x"}, Cache: "l2"}, wantErr: ErrBadManifest},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := Create(tt.path, tt.m); !errors.Is(err, tt.wantErr) {
				t.Errorf("Create err = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestCreateExisting(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dup.af")
	if err := Create(path, validManifest()); err != nil {
		t.Fatal(err)
	}
	if err := Create(path, validManifest()); !errors.Is(err, ErrExists) {
		t.Errorf("second Create err = %v, want ErrExists", err)
	}
}

func TestLoadMalformed(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.af")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); !errors.Is(err, ErrBadManifest) {
		t.Errorf("Load err = %v, want ErrBadManifest", err)
	}
}

func TestLoadMissing(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope.af")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("Load err = %v, want os.ErrNotExist", err)
	}
}

func TestLoadUnsupportedVersion(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "future.af")
	if err := os.WriteFile(path, []byte(`{"version":99,"program":{"name":"x"}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); !errors.Is(err, ErrBadManifest) {
		t.Errorf("Load err = %v, want ErrBadManifest", err)
	}
}

func TestUpdatePreservesData(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "u.af")
	if err := Create(path, validManifest()); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(DataPath(path), []byte("payload"), 0o644); err != nil {
		t.Fatal(err)
	}
	m := validManifest()
	m.Cache = "memory"
	if err := Update(path, m); err != nil {
		t.Fatalf("Update: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cache != "memory" {
		t.Errorf("Cache = %q, want %q", got.Cache, "memory")
	}
	data, err := os.ReadFile(DataPath(path))
	if err != nil || string(data) != "payload" {
		t.Errorf("data part = (%q, %v), want preserved", data, err)
	}
}

func TestCopyDuplicatesBothParts(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "src.af")
	dst := filepath.Join(dir, "dst.af")
	if err := Create(src, validManifest()); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(DataPath(src), []byte("original"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Copy(src, dst); err != nil {
		t.Fatalf("Copy: %v", err)
	}
	// Same components...
	gotM, err := Load(dst)
	if err != nil || gotM.Program.Name != "null" {
		t.Fatalf("dst manifest = (%+v, %v)", gotM, err)
	}
	gotD, err := os.ReadFile(DataPath(dst))
	if err != nil || string(gotD) != "original" {
		t.Fatalf("dst data = (%q, %v)", gotD, err)
	}
	// ...but independent: mutating the copy leaves the source alone.
	if err := os.WriteFile(DataPath(dst), []byte("changed"), 0o644); err != nil {
		t.Fatal(err)
	}
	srcD, _ := os.ReadFile(DataPath(src))
	if string(srcD) != "original" {
		t.Errorf("src data mutated to %q", srcD)
	}
}

func TestCopyErrors(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "s.af")
	if err := Create(src, validManifest()); err != nil {
		t.Fatal(err)
	}
	if err := Copy(src, filepath.Join(dir, "d.txt")); !errors.Is(err, ErrNotActive) {
		t.Errorf("Copy to non-.af err = %v, want ErrNotActive", err)
	}
	dst := filepath.Join(dir, "d.af")
	if err := Create(dst, validManifest()); err != nil {
		t.Fatal(err)
	}
	if err := Copy(src, dst); !errors.Is(err, ErrExists) {
		t.Errorf("Copy over existing err = %v, want ErrExists", err)
	}
}

func TestRenameMovesBothParts(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "old.af")
	dst := filepath.Join(dir, "new.af")
	if err := Create(src, validManifest()); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(DataPath(src), []byte("cargo"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Rename(src, dst); err != nil {
		t.Fatalf("Rename: %v", err)
	}
	if _, err := os.Stat(src); !errors.Is(err, os.ErrNotExist) {
		t.Error("source manifest still exists")
	}
	if _, err := os.Stat(DataPath(src)); !errors.Is(err, os.ErrNotExist) {
		t.Error("source data part still exists")
	}
	got, err := os.ReadFile(DataPath(dst))
	if err != nil || string(got) != "cargo" {
		t.Errorf("dst data = (%q, %v)", got, err)
	}
}

func TestRemoveDeletesBothParts(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "gone.af")
	if err := Create(path, validManifest()); err != nil {
		t.Fatal(err)
	}
	if err := Remove(path); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Error("manifest still exists")
	}
	if _, err := os.Stat(DataPath(path)); !errors.Is(err, os.ErrNotExist) {
		t.Error("data part still exists")
	}
}

func TestList(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"a.af", "b.af"} {
		if err := Create(filepath.Join(dir, name), validManifest()); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "c.txt"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := List(dir)
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("List = %v, want 2 manifests", got)
	}
}

func TestManifestRoundTripProperty(t *testing.T) {
	// Any valid manifest survives Create/Load unchanged in its salient
	// fields.
	strategies := []string{"", "process", "procctl", "thread", "direct"}
	caches := []string{"", "none", "disk", "memory"}
	dir := t.TempDir()
	i := 0
	f := func(rawName []byte, sIdx, cIdx uint8, rawAddr []byte) bool {
		// JSON round-trips arbitrary bytes only if they are valid UTF-8, so
		// project the generated identifiers onto ASCII.
		name := asciiName(rawName)
		addr := asciiName(rawAddr)
		i++
		path := filepath.Join(dir, "prop", "m"+itoa(i)+".af")
		os.MkdirAll(filepath.Dir(path), 0o755)
		give := Manifest{
			Program:  ProgramSpec{Name: name},
			Strategy: strategies[int(sIdx)%len(strategies)],
			Cache:    caches[int(cIdx)%len(caches)],
			Source:   SourceSpec{Kind: "tcp", Addr: addr},
		}
		if err := Create(path, give); err != nil {
			return false
		}
		got, err := Load(path)
		if err != nil {
			return false
		}
		return got.Program.Name == give.Program.Name &&
			got.Strategy == give.Strategy &&
			got.Cache == give.Cache &&
			got.Source.Addr == give.Source.Addr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func asciiName(raw []byte) string {
	if len(raw) > 64 {
		raw = raw[:64]
	}
	out := make([]byte, 0, len(raw)+1)
	out = append(out, 'p')
	for _, b := range raw {
		out = append(out, 'a'+b%26)
	}
	return string(out)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func TestDataFileReadWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "d.af")
	if err := Create(path, validManifest()); err != nil {
		t.Fatal(err)
	}
	df, err := OpenData(path)
	if err != nil {
		t.Fatalf("OpenData: %v", err)
	}
	defer df.Close()

	if _, err := df.WriteAt([]byte("0123456789"), 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := df.ReadAt(buf, 3); err != nil || string(buf) != "3456" {
		t.Errorf("ReadAt = (%q, %v)", buf, err)
	}
	if size, err := df.Size(); err != nil || size != 10 {
		t.Errorf("Size = (%d, %v), want 10", size, err)
	}
	if err := df.Truncate(5); err != nil {
		t.Fatal(err)
	}
	if size, _ := df.Size(); size != 5 {
		t.Errorf("Size after truncate = %d, want 5", size)
	}
	if _, err := df.ReadAt(buf, 4); !errors.Is(err, io.EOF) && err != nil {
		// a 4-byte read at offset 4 of a 5-byte file returns 1, io.EOF
		t.Errorf("ReadAt past end err = %v", err)
	}
	if err := df.Sync(); err != nil {
		t.Errorf("Sync: %v", err)
	}
}

func TestOpenDataSparseWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sparse.af")
	if err := Create(path, validManifest()); err != nil {
		t.Fatal(err)
	}
	df, err := OpenData(path)
	if err != nil {
		t.Fatal(err)
	}
	defer df.Close()
	if _, err := df.WriteAt([]byte("end"), 100); err != nil {
		t.Fatal(err)
	}
	if size, _ := df.Size(); size != 103 {
		t.Errorf("Size = %d, want 103", size)
	}
	buf := make([]byte, 3)
	if _, err := df.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0 || buf[1] != 0 || buf[2] != 0 {
		t.Errorf("hole = %v, want zeros", buf)
	}
}

func TestOpenDataRejectsPassivePath(t *testing.T) {
	if _, err := OpenData("plain.txt"); !errors.Is(err, ErrNotActive) {
		t.Errorf("OpenData err = %v, want ErrNotActive", err)
	}
}

func TestNoDataDirectoryOperations(t *testing.T) {
	dir := t.TempDir()
	m := validManifest()
	m.NoData = true

	src := filepath.Join(dir, "gen.af")
	if err := Create(src, m); err != nil {
		t.Fatal(err)
	}

	// Copy carries only the manifest; no data part appears.
	cp := filepath.Join(dir, "copy.af")
	if err := Copy(src, cp); err != nil {
		t.Fatalf("Copy: %v", err)
	}
	if _, err := os.Stat(DataPath(cp)); !errors.Is(err, os.ErrNotExist) {
		t.Error("Copy of NoData file created a data part")
	}

	// Rename moves just the manifest.
	mv := filepath.Join(dir, "moved.af")
	if err := Rename(cp, mv); err != nil {
		t.Fatalf("Rename: %v", err)
	}
	if _, err := os.Stat(mv); err != nil {
		t.Errorf("renamed manifest missing: %v", err)
	}

	// Remove deletes just the manifest, without complaining about the
	// absent data part.
	if err := Remove(mv); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if err := Remove(src); err != nil {
		t.Fatalf("Remove src: %v", err)
	}
}
