package vfs

import (
	"strings"

	"repro/internal/sys"
)

// MaxNameLen bounds a single path component, matching NAME_MAX.
const MaxNameLen = 255

// SplitPath normalises an absolute path into its components. It rejects
// relative paths, empty components are dropped, and "." / ".." are not
// supported (the simulated kernel only deals in canonical absolute paths).
func SplitPath(path string) ([]string, error) {
	if path == "" || path[0] != '/' {
		return nil, sys.EINVAL
	}
	raw := strings.Split(path, "/")
	parts := raw[:0]
	for _, p := range raw {
		switch p {
		case "", ".":
			continue
		case "..":
			return nil, sys.EINVAL
		}
		if len(p) > MaxNameLen {
			return nil, sys.ENAMETOOLONG
		}
		parts = append(parts, p)
	}
	return parts, nil
}

// canonical reports whether path is already in the form CleanPath
// returns: "/" or a leading slash followed by components that are not
// empty, ".", "..", or longer than MaxNameLen, with no trailing slash.
func canonical(path string) bool {
	if path == "/" {
		return true
	}
	if path == "" || path[0] != '/' {
		return false
	}
	for rest, more := path[1:], true; more; {
		var c string
		c, rest, more = strings.Cut(rest, "/")
		if !canonicalName(c) {
			return false
		}
	}
	return true
}

// canonicalName reports whether c may be a component of a canonical
// path: not empty, ".", "..", or longer than MaxNameLen.
func canonicalName(c string) bool {
	return c != "" && c != "." && c != ".." && len(c) <= MaxNameLen
}

// CleanPath canonicalises an absolute path (collapses duplicate slashes,
// drops "." components, strips the trailing slash) or returns SplitPath's
// error. A path that is already canonical is returned as is, without
// allocating — the case of nearly every syscall.
func CleanPath(path string) (string, error) {
	if canonical(path) {
		return path, nil
	}
	parts, err := SplitPath(path)
	if err != nil {
		return "", err
	}
	return "/" + strings.Join(parts, "/"), nil
}

// Clean is CleanPath for callers that want a path back no matter what:
// it returns "/" for a path SplitPath rejects.
func Clean(path string) string {
	c, err := CleanPath(path)
	if err != nil {
		return "/"
	}
	return c
}

// SplitDir separates a cleaned absolute path into parent directory and
// final component. SplitDir("/a/b/c") = ("/a/b", "c").
func SplitDir(path string) (dir, name string) {
	path = Clean(path)
	if path == "/" {
		return "/", ""
	}
	i := strings.LastIndexByte(path, '/')
	if i == 0 {
		return "/", path[1:]
	}
	return path[:i], path[i+1:]
}
