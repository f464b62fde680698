package tune

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
)

// The per-host schedule cache: one JSON file per (CPU model, GOMAXPROCS,
// kernel generation) under the user cache directory, e.g.
// ~/.cache/negfsim/schedule-3f92ab17c04d55e6.json. Loading is fail-open:
// a corrupt file, a schema version mismatch or a host-key mismatch all
// fall back to the built-in defaults with a logged warning and a
// tune.cache_misses tick — a stale cache must never stop a run.

// hostKeyOnce memoizes the host key: /proc/cpuinfo does not change while
// the process lives, and GOMAXPROCS changes after startup should not
// silently re-key the cache mid-run.
var (
	hostKeyOnce sync.Once
	hostKeyVal  string
)

// HostKey identifies the tuning domain of this process: CPU model +
// GOMAXPROCS + kernel library version. Schedules are only trusted on the
// host key they were measured under.
func HostKey() string {
	hostKeyOnce.Do(func() {
		hostKeyVal = fmt.Sprintf("%s|gomaxprocs=%d|%s", cpuModel(), runtime.GOMAXPROCS(0), LibraryVersion)
	})
	return hostKeyVal
}

// cpuModel returns the CPU model string from /proc/cpuinfo on Linux,
// falling back to GOOS/GOARCH where unavailable.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				if _, v, ok := strings.Cut(name, ":"); ok {
					return strings.Join(strings.Fields(v), " ")
				}
			}
		}
	}
	return runtime.GOOS + "/" + runtime.GOARCH
}

// CacheDir returns the schedule cache directory, honouring the platform
// user cache root ($XDG_CACHE_HOME on Linux).
func CacheDir() (string, error) {
	root, err := os.UserCacheDir()
	if err != nil {
		return "", fmt.Errorf("tune: no user cache dir: %w", err)
	}
	return filepath.Join(root, "negfsim"), nil
}

// CachePath returns the schedule file path for this host.
func CachePath() (string, error) { return cachePathFor(HostKey()) }

// cachePathFor returns the schedule file path for a host key: the key's
// hash names the file, so a new key (another host, GOMAXPROCS or kernel
// generation) never finds an old key's file.
func cachePathFor(hostKey string) (string, error) {
	dir, err := CacheDir()
	if err != nil {
		return "", err
	}
	h := fnv.New64a()
	h.Write([]byte(hostKey))
	return filepath.Join(dir, fmt.Sprintf("schedule-%016x.json", h.Sum64())), nil
}

// LoadCached reads this host's cached schedule. On any failure — no file,
// unreadable, corrupt JSON, wrong schema version, wrong host key — it
// returns DefaultSchedule() and false, logging a warning through logf
// (which may be nil) for every case except a simply absent file. A hit
// ticks tune.cache_hits; every fallback ticks tune.cache_misses.
func LoadCached(logf func(format string, args ...any)) (Schedule, bool) {
	path, err := CachePath()
	if err != nil {
		return cacheMiss(logf, "schedule cache unavailable: %v", err)
	}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		obsCacheMisses.Inc()
		return DefaultSchedule(), false
	}
	if err != nil {
		return cacheMiss(logf, "schedule cache %s unreadable: %v", path, err)
	}
	s, err := ParseSchedule(data)
	if err != nil {
		return cacheMiss(logf, "schedule cache %s ignored: %v", path, err)
	}
	if s.HostKey != HostKey() {
		return cacheMiss(logf, "schedule cache %s tuned for another host (%q, this host %q); using defaults",
			path, s.HostKey, HostKey())
	}
	obsCacheHits.Inc()
	return *s, true
}

// cacheMiss logs one fallback warning and returns the defaults.
func cacheMiss(logf func(format string, args ...any), format string, args ...any) (Schedule, bool) {
	obsCacheMisses.Inc()
	if logf != nil {
		logf("tune: "+format, args...)
	}
	return DefaultSchedule(), false
}

// SaveCached stamps the schedule with this host's key and writes it to the
// per-host cache path atomically (temp file + rename), creating the cache
// directory if needed. It returns the path written.
func SaveCached(s Schedule) (string, error) {
	s.HostKey = HostKey()
	if err := s.Validate(); err != nil {
		return "", err
	}
	path, err := CachePath()
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", fmt.Errorf("tune: creating cache dir: %w", err)
	}
	data, err := s.Marshal()
	if err != nil {
		return "", err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".schedule-*")
	if err != nil {
		return "", fmt.Errorf("tune: writing schedule cache: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", fmt.Errorf("tune: writing schedule cache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return "", fmt.Errorf("tune: writing schedule cache: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return "", fmt.Errorf("tune: writing schedule cache: %w", err)
	}
	return path, nil
}

// LoadFile reads an explicit schedule file (the -schedule flag). The
// schema version must match; a host-key mismatch is reported through logf
// as a warning but the schedule is still returned — handing a specific
// file to a binary is an explicit operator decision.
func LoadFile(path string, logf func(format string, args ...any)) (*Schedule, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("tune: reading schedule: %w", err)
	}
	s, err := ParseSchedule(data)
	if err != nil {
		return nil, fmt.Errorf("tune: %s: %w", path, err)
	}
	if s.HostKey != "" && s.HostKey != HostKey() && logf != nil {
		logf("tune: %s was tuned for another host (%q); applying anyway", path, s.HostKey)
	}
	return s, nil
}
