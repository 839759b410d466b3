"""Seeded workload generators for the perfbench benchmark.

Every workload is one agent's life in a closed loop with one client:
timestamped turns arrive in order, and some of them are followed by a
recall the agent waits for before it replies. The generators belong to
the benchmark (they never call `timem.bench.generate_fixture`), so a
commit and its parent always see identical inputs for a seed.

The same seed always gives the same turns, questions and evidence. The
sizes and each user's timeline (session lengths, gaps, so every day,
week and month group) are fixed per workload; a seed changes which facts
are told and which of them are asked about, so two seeds measure the
same amount of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

from timem.consolidation import DialogTurn

# User ids are first names the mock planner never turns into keywords.
USERS = ("alice", "bob", "carol", "dave", "erin", "frank", "grace", "heidi")

ACTIVITIES = (
    "kayaking", "archery", "pottery", "birdwatching", "bouldering", "calligraphy",
    "orienteering", "beekeeping", "woodcarving", "stargazing", "fencing", "quilting",
    "sailing", "snorkeling", "juggling", "origami", "rowing", "skating", "knitting",
    "gardening", "fishing", "hiking", "cycling", "surfing", "sketching", "baking",
    "climbing", "dancing", "chess", "photography",
)
FRIENDS = (
    "Marta", "Tobias", "Ingrid", "Rafael", "Yusuf", "Leila", "Anders", "Priya",
    "Mateo", "Sofia", "Henrik", "Amara", "Dmitri", "Noemi", "Kenji", "Lucia",
    "Oskar", "Zainab", "Felix", "Greta", "Hamid", "Elif", "Joaquin", "Saoirse",
)
PLACES = (
    "Lake Verano", "Mount Quarrel", "Cedar Hollow", "Brickmoor Hall", "Gullwing Pier",
    "Fernwhistle Park", "Old Copper Mill", "Saltmarsh Point", "Juniper Ridge",
    "Harbor Steps", "Willowmere", "Granite Basin", "Thornbury Green", "Elm Crossing",
    "Bramble Cove", "Ashford Quay", "Lantern Wharf", "Pinecrest Meadow",
    "Silverbeck Falls", "Rookery Lane",
)
DISHES = (
    "ramen", "paella", "goulash", "falafel", "pierogi", "laksa", "tagine", "gnocchi",
    "risotto", "moussaka", "ceviche", "dumplings", "shakshuka", "jambalaya", "bibimbap",
    "empanadas", "lasagna", "curry", "chowder", "souvlaki",
)
CITIES = (
    "Lisbon", "Osaka", "Tallinn", "Valparaiso", "Marrakesh", "Bergen", "Ljubljana",
    "Cusco", "Hobart", "Tbilisi", "Quebec", "Kyoto", "Porto", "Reykjavik", "Hanoi",
    "Zanzibar",
)
CHORES = (
    "sorted the garage", "fixed the leaking tap", "repainted the hallway",
    "cleaned the windows", "filed the tax forms", "repaired the bike chain",
)

# (kind, user text, assistant text); slots are filled from the tables above.
TEMPLATES = (
    ("activity", "I went {activity} with {friend} at {place} today.", "Sounds fun!"),
    ("meal", "I cooked {dish} with {friend} tonight.", "Well done."),
    ("trip", "I booked a trip to {city} with {friend}.", "Enjoy it!"),
    ("preference", "I really love {activity}, it helps me unwind.", "Nice balance."),
    ("chore", "This morning I {chore}.", "Good start."),
)

# Question styles in a fixed cycle: 4 simple, 3 hybrid, 3 complex in 10.
STYLE_CYCLE = ("simple", "hybrid", "complex", "simple", "hybrid",
               "simple", "complex", "hybrid", "simple", "complex")
ASKED_KINDS = ("activity", "meal", "trip")
EVIDENCE_CAP = 5

START = datetime(2024, 1, 1, 8, 0, tzinfo=timezone.utc)
# Gaps between sessions, in hours: short ones keep a day open, long ones
# cross day, ISO-week and month boundaries so every level closes groups.
SESSION_GAPS_H = (2, 5, 9, 20, 30, 50, 80, 200)


@dataclass(frozen=True)
class Shape:
    users: int
    turns_per_user: int
    ask_every: int        # recall after every n-th turn of the stream; 0 = never
    final_questions: int  # questions asked after the last turn


SHAPES = {
    "deep_durable": Shape(users=1, turns_per_user=1000, ask_every=0, final_questions=200),
    "chat_loop": Shape(users=8, turns_per_user=400, ask_every=8, final_questions=0),
}


@dataclass(frozen=True)
class Question:
    user_id: str
    text: str
    t_q: datetime
    evidence_turn_ids: tuple[str, ...]


@dataclass(frozen=True)
class Fact:
    kind: str
    slots: dict
    turn_id: str


@dataclass
class Workload:
    users: list[str]
    stream: list[tuple[str, DialogTurn]]  # all users' turns in timestamp order
    asks: dict[int, Question]             # stream index -> recall after that turn
    final: list[Question]                 # recalls after the last turn and a restart


def _user_turns(rng: random.Random, user: str, n_turns: int) -> tuple[list[DialogTurn], list[Fact]]:
    """A user's turns: the timeline comes from the user's name, the
    content from `rng`."""
    timeline = random.Random(f"perfbench/timeline/{user}")
    clock = START + timedelta(minutes=timeline.randrange(0, 48 * 60))
    turns: list[DialogTurn] = []
    facts: list[Fact] = []
    session = 0
    while len(turns) < n_turns:
        session_id = f"{user}-s{session:04d}"
        for i in range(min(timeline.randint(3, 7), n_turns - len(turns))):
            kind, user_tpl, asst_tpl = TEMPLATES[rng.randrange(len(TEMPLATES))]
            slots = {
                "activity": rng.choice(ACTIVITIES), "friend": rng.choice(FRIENDS),
                "place": rng.choice(PLACES), "dish": rng.choice(DISHES),
                "city": rng.choice(CITIES), "chore": rng.choice(CHORES),
            }
            turn_id = f"{session_id}/{i}"
            turns.append(DialogTurn(
                turn_id=turn_id, session_id=session_id, timestamp=clock,
                user_text=user_tpl.format(**slots),
                assistant_text=asst_tpl.format(**slots)))
            facts.append(Fact(kind, slots, turn_id))
            clock += timedelta(seconds=timeline.randint(40, 200))
        session += 1
        clock += timedelta(hours=timeline.choice(SESSION_GAPS_H), minutes=timeline.randrange(60))
    return turns, facts


def _evidence(facts: list[Fact], match) -> tuple[str, ...]:
    """The most recent matching facts, oldest first."""
    hits = [f.turn_id for f in facts if match(f)]
    return tuple(hits[-EVIDENCE_CAP:])


def make_question(rng: random.Random, user: str, facts: list[Fact], number: int,
                  t_q: datetime, slices: int = 1) -> Question:
    """Question `number` about the user's facts so far, with its evidence.

    Its style and the kind of fact it asks about follow fixed cycles, so
    every seed asks the same mix; with `slices` > 1 the fact is drawn
    from slice `number % slices` of the history, so the ages of the facts
    asked about are spread evenly too.
    """
    name = user.capitalize()
    style = STYLE_CYCLE[number % len(STYLE_CYCLE)]
    told = [f for f in facts if f.kind == ASKED_KINDS[number % len(ASKED_KINDS)]] or facts
    part = number % slices
    fact = rng.choice(told[len(told) * part // slices:len(told) * (part + 1) // slices] or told)
    s = fact.slots
    if fact.kind == "chore":  # early in a stream nothing else may be told yet
        text, match = (f"When did {name} do chores like {s['chore']}?",
                       lambda f: f.kind == "chore" and f.slots["chore"] == s["chore"])
    elif fact.kind == "preference":
        text, match = (f"Which hobby helps {name} unwind, such as {s['activity']}?",
                       lambda f: f.kind == "preference" and f.slots["activity"] == s["activity"])
    elif style == "simple":
        text, match = {
            "activity": (f"Where did {name} go {s['activity']} with {s['friend']}?",
                         lambda f: f.kind == "activity" and f.slots["activity"] == s["activity"]
                         and f.slots["friend"] == s["friend"]),
            "meal": (f"When did {name} cook {s['dish']} with {s['friend']}?",
                     lambda f: f.kind == "meal" and f.slots["dish"] == s["dish"]
                     and f.slots["friend"] == s["friend"]),
            "trip": (f"Which city did {name} book a trip to with {s['friend']}?",
                     lambda f: f.kind == "trip" and f.slots["friend"] == s["friend"]),
        }[fact.kind]
    elif style == "hybrid":
        text, match = {
            "activity": (f"List the places where {name} went {s['activity']}.",
                         lambda f: f.kind == "activity" and f.slots["activity"] == s["activity"]),
            "meal": (f"List the dishes {name} cooked with {s['friend']}.",
                     lambda f: f.kind == "meal" and f.slots["friend"] == s["friend"]),
            "trip": (f"List the trips {name} booked to {s['city']}.",
                     lambda f: f.kind == "trip" and f.slots["city"] == s["city"]),
        }[fact.kind]
    else:
        text, match = {
            "activity": (f"Would {name} enjoy a {s['activity']} weekend with {s['friend']}?",
                         lambda f: f.kind in ("activity", "preference")
                         and f.slots["activity"] == s["activity"]
                         and (f.kind == "preference" or f.slots["friend"] == s["friend"])),
            "meal": (f"Would {name} enjoy a {s['dish']} cooking class?",
                     lambda f: f.kind == "meal" and f.slots["dish"] == s["dish"]),
            "trip": (f"Would {name} prefer a longer stay in {s['city']}?",
                     lambda f: f.kind == "trip" and f.slots["city"] == s["city"]),
        }[fact.kind]
    return Question(user, text, t_q, _evidence(facts, match))


def generate(name: str, seed: int) -> Workload:
    """Deterministic inputs of one workload for one seed."""
    shape = SHAPES[name]
    rng = random.Random(f"perfbench/{name}/{seed}")
    users = list(USERS[:shape.users])
    per_user = {u: _user_turns(rng, u, shape.turns_per_user) for u in users}

    order = sorted(((turn.timestamp, users.index(u), i)
                    for u, (turns, _) in per_user.items() for i, turn in enumerate(turns)))
    stream: list[tuple[str, DialogTurn]] = []
    asks: dict[int, Question] = {}
    for index, (_, u_idx, i) in enumerate(order):
        user = users[u_idx]
        turns, facts = per_user[user]
        stream.append((user, turns[i]))
        if shape.ask_every and (index + 1) % shape.ask_every == 0:
            asks[index] = make_question(rng, user, facts[:i + 1], len(asks), turns[i].timestamp)

    final: list[Question] = []
    if shape.final_questions:
        t_q = stream[-1][1].timestamp + timedelta(days=1)
        for q in range(shape.final_questions):
            user = users[q % len(users)]
            final.append(make_question(rng, user, per_user[user][1], q, t_q,
                                       slices=shape.final_questions))
    return Workload(users, stream, asks, final)
