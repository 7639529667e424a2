#!/bin/sh
# mixpd-crash-smoke: crash-recovery guard for the campaign service,
# against the real binary over loopback HTTP.
#
#   1. start mixpd -store DIR on a free loopback port and run a few
#      configs/service-demo.yaml submissions to completion, capturing
#      each campaign's /results body and SSE stream;
#   2. submit a campaign on a fresh seed and SIGKILL mixpd while it runs;
#   3. restart mixpd on the same DIR and assert that /healthz reads ok,
#      that the killed campaign is unknown (it was never archived), that
#      every campaign archived before the kill serves /results and SSE
#      bytes equal to those captured before it, and that re-submitting a
#      completed seed returns the same results.
#
# The script starts one mixpd at a time and kills only that process; an
# EXIT trap stops it whatever happens. See README "Durability".
set -eu

GO=${GO:-go}
work=$(mktemp -d)
pid=""
stop_mixpd() {
    if [ -n "$pid" ]; then
        kill -9 "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true
        pid=""
    fi
}
trap 'stop_mixpd; rm -rf "$work"' EXIT
trap 'exit 1' INT TERM HUP

fail() {
    echo "mixpd-crash-smoke: FAIL - $*" >&2
    exit 1
}

"$GO" build -o "$work/mixpd" ./cmd/mixpd

cfg=configs/service-demo.yaml
state=$work/state
base=""

# start_mixpd starts mixpd over $state on the first free port from a
# per-process offset and waits until it answers /healthz itself. mixpd
# runs with -access-log, so every request it serves leaves a line in its
# own log: a /healthz answer missing from that log came from another
# server holding the port, and ours exits on the failed bind. A port
# already taken makes mixpd exit at once; the next one is tried.
starts=0
start_mixpd() {
    port=$((20000 + $$ % 20000))
    tries=0
    while [ "$tries" -lt 20 ]; do
        starts=$((starts + 1))
        log=$work/mixpd.$starts.log
        "$work/mixpd" -addr "127.0.0.1:$port" -store "$state" -workers 2 \
            -access-log 2> "$log" &
        pid=$!
        i=0
        while [ "$i" -lt 100 ]; do
            if curl -sf -o /dev/null "http://127.0.0.1:$port/healthz" &&
                grep -q '"path":"/healthz"' "$log"; then
                base=http://127.0.0.1:$port
                return 0
            fi
            kill -0 "$pid" 2>/dev/null || break
            sleep 0.1
            i=$((i + 1))
        done
        stop_mixpd
        port=$((port + 1))
        tries=$((tries + 1))
    done
    cat "$work"/mixpd.*.log >&2
    fail "mixpd did not start"
}

# submit SEED prints the new campaign's ID.
submit() {
    curl -sf -X POST --data-binary @"$cfg" "$base/campaigns?name=demo&seed=$1" |
        sed -n 's/.*"id":"\([^"]*\)".*/\1/p'
}

# state_of ID prints the campaign's state.
state_of() {
    curl -sf "$base/campaigns/$1" | sed -n 's/.*"state":"\([^"]*\)".*/\1/p'
}

# wait_done ID waits until the campaign is done.
wait_done() {
    i=0
    while [ "$i" -lt 600 ]; do
        case $(state_of "$1") in
        done) return 0 ;;
        failed | canceled) fail "campaign $1 ended $(state_of "$1")" ;;
        esac
        sleep 0.1
        i=$((i + 1))
    done
    fail "campaign $1 did not finish"
}

# capture ID PREFIX saves the campaign's /results body and SSE stream.
capture() {
    curl -sf "$base/campaigns/$1/results" > "$2.results"
    curl -sfN --max-time 60 "$base/campaigns/$1/events" > "$2.events"
    grep -q '^event: done$' "$2.events" || fail "SSE stream of $1 has no done frame"
}

echo "mixpd-crash-smoke: first run, three submissions"
start_mixpd
ids=""
for seed in 42 43 42; do
    id=$(submit "$seed")
    [ -n "$id" ] || fail "submission on seed $seed refused"
    wait_done "$id"
    capture "$id" "$work/$id"
    ids="$ids $id"
    echo "$id" > "$work/seed-$seed.id"
done
first=$(cat "$work/seed-42.id")

echo "mixpd-crash-smoke: fresh seeds, SIGKILL mid-campaign"
# A demo campaign takes well under a second, so submit fresh seeds until
# one is still queued or running when asked, and kill at once.
killed=""
seed=4242
while [ -z "$killed" ] && [ "$seed" -lt 4262 ]; do
    id=$(submit "$seed")
    [ -n "$id" ] || fail "submission on seed $seed refused"
    case $(state_of "$id") in
    queued | running) killed=$id ;;
    esac
    seed=$((seed + 1))
done
kill -9 "$pid"
wait "$pid" 2>/dev/null || true
pid=""
[ -n "$killed" ] || fail "every fresh-seed campaign finished before the kill"
echo "mixpd-crash-smoke: killed mixpd while $killed ran"

echo "mixpd-crash-smoke: restart over the same store"
start_mixpd
health=$(curl -s -w ' %{http_code}' "$base/healthz")
case $health in
*'"status":"ok"'*' 200') ;;
*) fail "healthz after restart: $health" ;;
esac
# The killed campaign was never archived, so the restarted process does
# not know it; had it finished in the instant before the kill, it is done.
case $(curl -s -o /dev/null -w '%{http_code}' "$base/campaigns/$killed") in
404) ;;
200) [ "$(state_of "$killed")" = done ] || fail "killed campaign $killed restored as $(state_of "$killed")" ;;
*) fail "killed campaign $killed answers neither 404 nor done" ;;
esac
for id in $ids; do
    curl -sf "$base/campaigns/$id/results" > "$work/$id.results.after"
    curl -sfN --max-time 60 "$base/campaigns/$id/events" > "$work/$id.events.after"
    cmp "$work/$id.results" "$work/$id.results.after" ||
        fail "/results of $id changed across the crash"
    cmp "$work/$id.events" "$work/$id.events.after" ||
        fail "SSE stream of $id changed across the crash"
done

echo "mixpd-crash-smoke: re-submit seed 42"
again=$(submit 42)
[ -n "$again" ] || fail "re-submission on seed 42 refused"
wait_done "$again"
curl -sf "$base/campaigns/$again/results" > "$work/again.results"
cmp "$work/$first.results" "$work/again.results" ||
    fail "re-submitted seed 42 ($again) returned other results than $first"

stop_mixpd
echo "mixpd-crash-smoke: OK - healthy restart, archived campaigns byte-identical, re-run identical"
