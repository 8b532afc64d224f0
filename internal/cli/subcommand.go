package cli

import (
	"fmt"
	"sort"
	"strings"
)

// Subcommand splits an argv tail (os.Args[1:]) into a leading
// subcommand word and the remaining arguments, for the CLIs that verb
// their invocations (ctacalib fit/report). The word must come
// before any flag — Go's flag package stops at the first non-flag
// argument anyway, so a flag-first invocation would silently drop the
// verb; rejecting it here turns that mistake into a clear error. known
// is matched exactly and reported sorted in errors.
func Subcommand(argv []string, known ...string) (cmd string, rest []string, err error) {
	sorted := append([]string(nil), known...)
	sort.Strings(sorted)
	if len(argv) == 0 || strings.HasPrefix(argv[0], "-") {
		return "", nil, fmt.Errorf("missing subcommand (one of %s); flags go after the subcommand", strings.Join(sorted, ", "))
	}
	for _, k := range known {
		if argv[0] == k {
			return argv[0], argv[1:], nil
		}
	}
	return "", nil, fmt.Errorf("unknown subcommand %q (one of %s)", argv[0], strings.Join(sorted, ", "))
}
