#!/usr/bin/env bash
# Public-surface scan: lists every `pub` item name declared in crates/*/src
# that no other Rust file in the repository mentions, then prints the count.
#
# A name counts as having an outside caller when some `*.rs` file under
# crates/, src/, examples/, tests/ or qosbench/ other than the files that
# declare it contains the name as a whole word. Name collisions make this
# overcount callers, so the true number of uncalled items is at least the
# printed count. A second list and count leave examples/ out as a caller:
# they name the items that only an example runs. The scan only reports: it
# always exits 0, so growth shows without failing a build over an accessor.
#
# Usage: tests/pub_surface.sh [KIND...]
#   KIND is any of fn struct enum trait type const (default: all six);
#   `tests/pub_surface.sh fn` is the `pub fn`-only form.
set -u
cd "$(dirname "$0")/.."

kinds="${*:-fn struct enum trait type const}"
pattern="^[[:space:]]*pub ((const|unsafe) )*($(echo "$kinds" | tr ' ' '|')) [A-Za-z_][A-Za-z0-9_]*"
roots=(crates src examples tests qosbench)

count=0
example_only=""
example_count=0
for name in $(grep -rhoE --include='*.rs' "$pattern" crates/*/src |
    awk '{print $NF}' | sort -u); do
    declared=$(grep -rlE --include='*.rs' --exclude-dir=target \
        "^[[:space:]]*pub ((const|unsafe) )*[a-z]+ $name\b" crates/*/src | sort)
    mentioned=$(grep -rlw --include='*.rs' --exclude-dir=target "$name" "${roots[@]}" | sort)
    callers=$(comm -13 <(echo "$declared") <(echo "$mentioned"))
    line="$name ($(echo "$declared" | tr '\n' ' ' | sed 's/ $//'))"
    if [ -z "$callers" ]; then
        echo "$line"
        count=$((count + 1))
    elif [ -z "$(echo "$callers" | grep -v '^examples/')" ]; then
        example_only+="$line"$'\n'
        example_count=$((example_count + 1))
    fi
done
echo "pub items ($kinds) with no caller outside their own file: $count"
printf '%s' "$example_only"
echo "pub items ($kinds) with no caller outside their own file and examples/: $((count + example_count))"
exit 0
